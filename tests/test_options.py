"""The pinned option surface: every settable value on the public surfaces.

Each independently settable value doubles the configurations tests and
benchmarks must cover, so a new knob on any of these surfaces shows up
here as a reviewed edit.  A setting that no shipped caller sets to
anything but its default belongs in a module constant instead.

The first ten surfaces hold 54 values (``RouteOptions``, the
sharded fleet campaign's config, ``ScrubConfig`` and ``LinkChaos``,
once among them, are gone; random loss is a drop window, not a
``NetworkConfig`` field); the maintenance and experiment surfaces below them hold 35.
A session's ``volume`` and the scrub daemon's ``cluster`` are their
subjects, not options.  The ``repro`` CLI's flags are pinned per
subcommand (23 in all): a flag exists only where a shipped caller (CI,
the docs, an example or a benchmark) passes it.
"""

import argparse
import dataclasses
import importlib
import inspect

import pytest

import repro
from repro.analysis.campaign import run_suite
from repro.analysis.placement import run_placement_bench
from repro.analysis.scrub import run_scrub_experiment, run_scrub_run
from repro.analysis.serve import run_serve
from repro.cli import build_parser
from repro.campaign import CampaignConfig, generate_schedule
from repro.core.rebuild import Rebuilder
from repro.core.cluster import ClusterConfig
from repro.core.coordinator import CoordinatorConfig
from repro.core.session import RetryPolicy, VolumeSession
from repro.placement import ShardedCluster
from repro.scrub import ScrubDaemon
from repro.sim.network import NetworkConfig
from repro.transport import make_transport
from repro.transport.aio import AsyncioTransport
from repro.transport.chaos import ChaosPolicy


def _fields(config) -> set:
    return {field.name for field in dataclasses.fields(config)}


def _parameters(function) -> set:
    return set(inspect.signature(function).parameters) - {"self"}


SURFACES = {
    "RetryPolicy": (
        lambda: _fields(RetryPolicy),
        {"attempts", "backoff", "max_failovers"},
    ),
    "AsyncioTransport": (
        lambda: _parameters(AsyncioTransport.__init__),
        {"mode", "host", "base_port", "metrics"},
    ),
    "make_transport": (
        lambda: _parameters(make_transport),
        {"kind", "network_config", "metrics"},
    ),
    "CoordinatorConfig": (
        lambda: _fields(CoordinatorConfig),
        {
            "op_timeout", "observe_timestamps", "gc_enabled",
            "disable_fast_read", "unsafe_one_phase_writes",
        },
    ),
    "ScrubDaemon": (
        lambda: _parameters(ScrubDaemon.__init__) - {"cluster"},
        {"interval", "horizon"},
    ),
    "CampaignConfig": (
        lambda: _fields(CampaignConfig),
        {
            "m", "n", "f", "allow_unsafe_f", "block_size", "code_kind",
            "seed", "registers", "clients", "ops_per_client", "duration",
            "drain", "max_down", "corrupt_weight", "scrub_enabled",
        },
    ),
    "ChaosPolicy": (
        lambda: _fields(ChaosPolicy),
        {"seed", "duplicate", "corrupt"},
    ),
    "ClusterConfig": (
        lambda: _fields(ClusterConfig),
        {
            "m", "n", "f", "allow_unsafe_f", "block_size", "code_kind",
            "seed", "coordinator", "network", "transport", "clock_skews",
            "metrics_history_limit",
        },
    ),
    "NetworkConfig": (
        lambda: _fields(NetworkConfig),
        {"min_latency", "max_latency", "jitter_seed"},
    ),
    "VolumeSession": (
        lambda: _parameters(VolumeSession.__init__) - {"volume"},
        {"max_inflight", "retry", "route", "seed"},
    ),
    "generate_schedule": (
        lambda: _parameters(generate_schedule),
        {
            "seed", "n", "duration", "max_down", "crash_weight",
            "partition_weight", "drop_weight", "corrupt_weight",
            "registers", "event_gap", "down_time", "max_clock_skew",
        },
    ),
    "Rebuilder": (
        lambda: _parameters(Rebuilder.__init__),
        {"cluster"},
    ),
    "Rebuilder.rebuild": (
        lambda: _parameters(Rebuilder.rebuild),
        {"register_ids"},
    ),
    "Rebuilder.rebuild_register": (
        lambda: _parameters(Rebuilder.rebuild_register),
        {"register_id", "avoid"},
    ),
    "ShardedCluster.rebuild_brick": (
        lambda: _parameters(ShardedCluster.rebuild_brick),
        {"brick", "register_ids"},
    ),
    "run_scrub_run": (
        lambda: _parameters(run_scrub_run),
        {"ops", "corrupt_rate", "scrub_enabled", "seed"},
    ),
    "run_scrub_experiment": (
        lambda: _parameters(run_scrub_experiment),
        {"ops", "corrupt_rates"},
    ),
    "run_serve": (
        lambda: _parameters(run_serve),
        {
            "clients", "ops_per_client", "mode", "base_port", "drop_rate",
            "duplicate_rate", "corrupt_rate", "partition", "chaos_seed",
        },
    ),
    "run_placement_bench": (
        lambda: _parameters(run_placement_bench),
        set(),
    ),
    "run_suite": (
        lambda: _parameters(run_suite),
        {"config", "seeds"},
    ),
}

CLI_FLAGS = {
    "figure2": set(),
    "figure3": set(),
    "table1": set(),
    "scrub": {"--ops", "--corrupt-rate", "--out", "--json"},
    "placement": {"--min-ratio", "--json"},
    "campaign": {
        "--seeds", "--duration", "--ops", "--json", "--broken",
        "--corrupt-weight", "--scrub",
    },
    "serve": {
        "--clients", "--ops", "--json", "--drop-rate", "--duplicate-rate",
        "--corrupt-rate", "--chaos-seed", "--mode", "--port", "--partition",
    },
}


@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_settable_names_are_pinned(surface):
    actual, pinned = SURFACES[surface]
    assert actual() == pinned


def test_cli_flags_are_pinned():
    subcommands = next(
        action.choices for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    actual = {
        name: {
            option
            for action in parser._actions
            for option in action.option_strings
        } - {"-h", "--help"}
        for name, parser in subcommands.items()
    }
    assert actual == CLI_FLAGS
    assert sum(len(flags) for flags in CLI_FLAGS.values()) == 23


def test_route_options_are_gone():
    # ``route=`` takes a coordinator pid or None; no wrapper type.
    assert not hasattr(repro, "RouteOptions")
    with pytest.raises(ImportError):
        importlib.import_module("repro.core.routing")
