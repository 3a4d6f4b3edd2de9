"""Corrupt-as-erasure property: any m clean fragments recover the stripe.

The degraded-read path (PR: silent-corruption resilience) treats a
checksum-failed fragment exactly like a missing one — an erasure ⊥ —
and decodes from the survivors.  That is only sound if the code really
delivers its MDS promise under that treatment: with up to ``n - m``
fragments corrupted-and-excluded, *every* m-subset of the remaining
clean fragments must reconstruct the original data blocks.

The flip side is also pinned down: a silently corrupted fragment that
is *not* excluded poisons the decode — which is why the stable store
checksums at rest and the coordinator masks failed fragments to ⊥
instead of thawing garbage.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.erasure.registry import make_code

BLOCK_SIZE = 16

#: (registry kind, m, n) — parity only tolerates one erasure (n = m+1).
CODES = [
    ("parity", 4, 5),
    ("reed-solomon", 3, 5),
]


def stripes(m):
    block = st.binary(min_size=BLOCK_SIZE, max_size=BLOCK_SIZE)
    return st.lists(block, min_size=m, max_size=m)


def flip(block: bytes) -> bytes:
    return bytes([block[0] ^ 0x80]) + block[1:]


@pytest.mark.parametrize("kind,m,n", CODES, ids=[c[0] for c in CODES])
def test_every_m_subset_of_clean_fragments_decodes(kind, m, n):
    code = make_code(m, n, kind=kind)
    data = [bytes((31 * i + j) % 256 for j in range(BLOCK_SIZE)) for i in range(m)]
    encoded = code.encode(data)
    indices = set(range(1, n + 1))
    # Every corrupt set of size 0..n-m, treated as erasures.
    for k in range(n - m + 1):
        for corrupt in itertools.combinations(sorted(indices), k):
            clean = sorted(indices - set(corrupt))
            for subset in itertools.combinations(clean, m):
                got = code.decode({i: encoded[i - 1] for i in subset})
                assert got == data, (
                    f"{kind}: corrupt={corrupt} subset={subset}"
                )


@pytest.mark.parametrize("kind,m,n", CODES, ids=[c[0] for c in CODES])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_random_stripes_survive_corrupt_as_erasure(kind, m, n, data):
    code = make_code(m, n, kind=kind)
    stripe = data.draw(stripes(m))
    encoded = code.encode(stripe)
    corrupt = data.draw(
        st.sets(st.integers(1, n), min_size=0, max_size=n - m)
    )
    clean = sorted(set(range(1, n + 1)) - corrupt)
    subset = data.draw(st.permutations(clean)).copy()[:m]
    got = code.decode({i: encoded[i - 1] for i in subset})
    assert got == stripe


@pytest.mark.parametrize("kind,m,n", CODES, ids=[c[0] for c in CODES])
def test_unmasked_corruption_poisons_the_decode(kind, m, n):
    # Why checksums matter: feed the decoder a silently-flipped
    # fragment as if it were clean and the output is wrong.
    code = make_code(m, n, kind=kind)
    data = [bytes((7 * i + j) % 256 for j in range(BLOCK_SIZE)) for i in range(m)]
    encoded = code.encode(data)
    # Use the parity fragment (index n) so decode must actually mix it in.
    supplied = {i: encoded[i - 1] for i in range(2, m + 1)}
    supplied[n] = flip(encoded[n - 1])
    assert code.decode(supplied) != data
