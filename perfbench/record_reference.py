"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py

Run from the root of a checkout.  It writes, into perfbench/reference,

* verify.json and verify_ff_table.tsv of ``green verify`` on
  workloads.VERIFY_CONFIG at seed 0 (the reports do not depend on the seed);
* mackey.json: the module pool of mackey_odd_p, 2 seeded random modules of
  dim <= 12 over H for each chain in workloads.MACKEY_CHAINS, stored as the
  actions of the listed generators of H, with the class multiset of
  Res_H Ind_H^G M (dims, multiplicities and certificates);
* groupoid.json: for every subgroup pair (H, K) of each bridge group, the
  automorphism orders of the components of the isocomma H/G/K; for each
  chain in workloads.GROUPOID_CHAINS the boundary component orders of the
  three partials and the verdict and size of the geography comparison and of
  the factorization.

Every value is asserted by the same checks the benchmark runs, so a wrong
program fails here rather than recording a wrong reference.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

POOL_SIZE = 2
POOL_MAX_DIM = 12
POOL_SEED = 2001


def record_verify(root: Path, out: Path) -> None:
    from greencorr import cli

    with tempfile.TemporaryDirectory(dir=root) as tmp:
        rc = cli.run(wl.verify_argv(root, 0, Path(tmp)))
        if rc != 0:
            raise SystemExit(f"green verify exited with {rc}")
        for name in wl.VERIFY_REPORTS:
            (out / name).write_bytes((Path(tmp) / name).read_bytes())


def record_mackey(out: Path) -> None:
    from greencorr.catalog import a5
    from greencorr.decompose import same_multiset
    from greencorr.modules import random_module
    from greencorr.permgroups import coerce_perm, double_cosets, subgroup

    chains = []
    for idx, (name, p, gens) in enumerate(wl.MACKEY_CHAINS):
        G = a5()
        H = subgroup(G, list(gens), tag=name)
        cosets = double_cosets(G, H, H)
        rng = np.random.default_rng(POOL_SEED + idx)
        seen, modules = set(), []
        while len(modules) < POOL_SIZE:
            M = random_module(H.group, p, POOL_MAX_DIM, rng)
            if M.fingerprint() in seen:
                continue
            seen.add(M.fingerprint())
            lhs, rhs = wl.mackey_sides(G, H, M, cosets)
            rows, lhs_classes = wl.class_summary(lhs)
            rhs_rows, rhs_classes = wl.class_summary(rhs)
            assert rows == rhs_rows and same_multiset(lhs_classes, rhs_classes)
            action = [M.element_action(H.group.index[coerce_perm(g, G.degree)])
                      for g in gens]
            modules.append({"dim": M.dim,
                            "action": [a.tolist() for a in action],
                            "classes": rows})
            print(f"{name} module {len(modules) - 1}: dim {M.dim}, {rows}")
        chains.append({"name": name, "p": p, "generators_H": list(gens),
                       "modules": modules})
    doc = {"pool_seed": POOL_SEED, "max_dim": POOL_MAX_DIM, "chains": chains}
    (out / "mackey.json").write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def record_groupoid(out: Path) -> None:
    from greencorr.groupoids import group_groupoid, subgroup_inclusion

    inputs = wl.groupoid_setup(0, {})
    bridge = {}
    for name, (G, subs) in inputs["bridge"].items():
        Ggpd = group_groupoid(G, name)
        inclusions = [subgroup_inclusion(S, Ggpd) for S in subs]
        bridge[name] = sorted(
            wl.bridge_signature(G, H, K, iH, iK)
            for H, iH in zip(subs, inclusions)
            for K, iK in zip(subs, inclusions))
    chains = {}
    for name, (G, H, D) in inputs["chains"].items():
        chains[name] = {key: operation() for key, operation
                        in wl.chain_operations(G, H, D).items()}
        assert chains[name]["geography"][0] and chains[name]["factorization"][0]
        print(f"{name}: {chains[name]}")
    doc = {"bridge": bridge, "chains": chains}
    (out / "groupoid.json").write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    out = HERE / "reference"
    out.mkdir(parents=True, exist_ok=True)
    record_groupoid(out)
    record_mackey(out)
    record_verify(root, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
