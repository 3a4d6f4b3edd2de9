"""The pinned option surface: every settable value on ten public surfaces.

Each independently settable value doubles the configurations tests and
benchmarks must cover, so a new knob on any of these surfaces shows up
here as a reviewed edit.  A setting that no shipped caller sets to
anything but its default belongs in a module constant instead.

The pinned sets below hold 62 values in all; ``RouteOptions``, the
tenth surface, is gone.
"""

import dataclasses
import importlib
import inspect

import pytest

import repro
from repro.campaign import CampaignConfig
from repro.core.coordinator import CoordinatorConfig
from repro.core.session import RetryPolicy
from repro.placement import ShardedCampaignConfig
from repro.scrub import ScrubConfig
from repro.transport import make_transport
from repro.transport.aio import AsyncioTransport
from repro.transport.chaos import ChaosPolicy, LinkChaos


def _fields(config) -> set:
    return {field.name for field in dataclasses.fields(config)}


def _parameters(function) -> set:
    return set(inspect.signature(function).parameters) - {"self"}


SURFACES = {
    "RetryPolicy": (
        lambda: _fields(RetryPolicy),
        {"attempts", "backoff", "attempt_timeout", "max_failovers"},
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
    "ScrubConfig": (
        lambda: _fields(ScrubConfig),
        {"interval", "seed", "target_confidence", "samples_per_tick"},
    ),
    "CampaignConfig": (
        lambda: _fields(CampaignConfig),
        {
            "m", "n", "f", "allow_unsafe_f", "block_size", "code_kind",
            "seed", "registers", "clients", "ops_per_client", "duration",
            "drain", "op_timeout", "crash_weight", "partition_weight",
            "drop_weight", "max_down", "max_clock_skew", "corrupt_weight",
            "verify_checksums", "scrub_enabled",
        },
    ),
    "ShardedCampaignConfig": (
        lambda: _fields(ShardedCampaignConfig),
        {
            "bricks", "groups", "spares", "domains", "m", "block_size",
            "code_kind", "seed", "registers", "ops_per_client", "duration",
            "drain", "op_timeout", "crash_weight", "partition_weight",
            "drop_weight",
        },
    ),
    "LinkChaos": (
        lambda: _fields(LinkChaos),
        {"drop", "duplicate", "corrupt"},
    ),
    "ChaosPolicy": (
        lambda: _fields(ChaosPolicy),
        {"seed", "default"},
    ),
}


@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_settable_names_are_pinned(surface):
    actual, pinned = SURFACES[surface]
    assert actual() == pinned


def test_route_options_are_gone():
    # ``route=`` takes a coordinator pid or None; no wrapper type.
    assert not hasattr(repro, "RouteOptions")
    with pytest.raises(ImportError):
        importlib.import_module("repro.core.routing")
