"""Named groups and the scenario chains used throughout the test corpus."""

from __future__ import annotations

from .permgroups import (
    PermGroup,
    SubgroupEmbedding,
    closure,
    subgroup,
)


def cyclic(n: int) -> PermGroup:
    return closure([tuple((i + 1) % n for i in range(n))])


def symmetric(n: int) -> PermGroup:
    if n == 1:
        return closure([], degree=1)
    gens = [(1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,)]
    return closure([g for g in gens])


def alternating(n: int) -> PermGroup:
    if n < 3:
        return closure([], degree=max(n, 1))
    three = (1, 2, 0) + tuple(range(3, n))
    if n % 2 == 1:
        big = tuple(range(1, n)) + (0,)
    else:
        big = (0,) + tuple(range(2, n)) + (1,)
    G = closure([three, big])
    return G


def dihedral8() -> PermGroup:
    """D8 of order 8 as <(0 1 2 3), (0 2)> inside Sym(4)."""
    return closure([(1, 2, 3, 0), (2, 1, 0, 3)])


def a5() -> PermGroup:
    """A5 = <(0 1 2 3 4), (2 3 4)>, order checked at construction."""
    G = closure([(1, 2, 3, 4, 0), (0, 1, 3, 4, 2)])
    assert G.order == 60
    return G


def bridge_groups() -> dict[str, PermGroup]:
    """The groups quantified over by the isocomma/double-coset bridge."""
    return {
        "C6": cyclic(6),
        "S3": symmetric(3),
        "D8": dihedral8(),
        "A4": alternating(4),
        "S4": symmetric(4),
    }


def chain_s3() -> tuple[PermGroup, SubgroupEmbedding, SubgroupEmbedding]:
    """(S3, C2, C2) with C2 = <(0 1)>."""
    G = symmetric(3)
    H = subgroup(G, ["(0 1)"], tag="C2")
    return G, H, SubgroupEmbedding(G, H.element_indices, "C2")


def chain_s4_d8_c4() -> tuple[PermGroup, SubgroupEmbedding, SubgroupEmbedding]:
    G = symmetric(4)
    H = subgroup(G, ["(0 1 2 3)", "(0 2)"], tag="D8")
    D = subgroup(G, ["(0 1 2 3)"], tag="C4")
    return G, H, D


def chain_s4_d8_d8() -> tuple[PermGroup, SubgroupEmbedding, SubgroupEmbedding]:
    G = symmetric(4)
    H = subgroup(G, ["(0 1 2 3)", "(0 2)"], tag="D8")
    return G, H, SubgroupEmbedding(G, H.element_indices, "D8")


def chain_a5_a4_v4() -> tuple[PermGroup, SubgroupEmbedding, SubgroupEmbedding]:
    G = a5()
    H = subgroup(G, ["(0 1 2)", "(0 1)(2 3)"], tag="A4")
    D = subgroup(G, ["(0 1)(2 3)", "(0 2)(1 3)"], tag="V4")
    assert H.order == 12 and D.order == 4 and H.contains(D)
    return G, H, D


def scenario_chains() -> dict[str, tuple[PermGroup, SubgroupEmbedding, SubgroupEmbedding]]:
    """The catalog of (G, H, D) chains the boundary/Green checks run over."""
    return {
        "s3_c2_c2": chain_s3(),
        "s4_d8_c4": chain_s4_d8_c4(),
        "s4_d8_d8": chain_s4_d8_d8(),
        "a5_a4_v4": chain_a5_a4_v4(),
    }
