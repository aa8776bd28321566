"""Command line driver: scenario configs in, deterministic reports out.

A scenario config is one self-describing JSON file:

    {
      "p": 2,
      "degree": 3,
      "generators_G": ["(0 1)", "(0 1 2)"],
      "generators_H": ["(0 1)"],
      "generators_D": ["(0 1)"],
      "options": {"seed": 0, "format": "json", "out": null}
    }

Permutations may be cycle strings or image tuples.  Reports are emitted with
sorted keys and no timestamps, so identical configs and seeds give
byte-identical files.  Environment variables are never consulted.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .boundary import geography_check, partial, tricky_factorization
from .decompose import decompose, vertex
from .errors import InputError, TheoremViolationError, UndecidedError
from .green import (
    SCHEMA_VERSION,
    Scenario,
    correspondent_down,
    correspondent_up,
    eligible_modules,
    verify_scenario,
)
from .groupoids import GroupoidFunctor, group_groupoid, identity_functor
from .modules import (
    FpModule,
    module_from_json,
    regular_module,
    trivial_module,
)
from .permgroups import PermGroup, SubgroupEmbedding, coerce_perm, cycle_string

COMMANDS = ("isocomma", "partial", "families", "decompose", "vertex",
            "correspond", "verify")


@dataclass
class Config:
    p: int
    degree: int
    generators_G: list
    generators_H: list
    generators_D: list
    seed: int = 0
    format: str = "json"
    out: str | None = None

    @classmethod
    def from_file(cls, path: str) -> "Config":
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read config {path}: {exc}")
        return cls.from_dict(doc)

    @classmethod
    def from_dict(cls, doc: dict) -> "Config":
        try:
            opts = doc.get("options", {})
            cfg = cls(
                p=int(doc["p"]),
                degree=int(doc["degree"]),
                generators_G=list(doc["generators_G"]),
                generators_H=list(doc["generators_H"]),
                generators_D=list(doc["generators_D"]),
                seed=int(opts.get("seed", 0)),
                format=str(opts.get("format", "json")),
                out=opts.get("out"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed config: {exc}")
        if cfg.format not in ("json", "tsv"):
            raise InputError(f"unknown format {cfg.format!r}")
        return cfg

    def scenario(self) -> Scenario:
        G = PermGroup(self.degree, [coerce_perm(g, self.degree)
                                    for g in self.generators_G])
        H = _subgroup_of(G, self.generators_H, "H")
        D = _subgroup_of(G, self.generators_D, "D")
        if not H.contains(D):
            raise InputError("config violates the chain D <= H <= G")
        return Scenario.build(self.p, G, H, D, name="config")


def _subgroup_of(G: PermGroup, gens: list, tag: str) -> SubgroupEmbedding:
    perms = [coerce_perm(g, G.degree) for g in gens]
    for g in perms:
        if g not in G.index:
            raise InputError(f"{tag} generator {cycle_string(g)} is not in G")
    elems = G.subgroup_closure({G.index[g] for g in perms})
    return SubgroupEmbedding(G, tuple(elems), tag)


def _chain_functors(sc: Scenario):
    Ggpd = group_groupoid(sc.G, "G")
    Hgpd = group_groupoid(sc.H.group, "H")
    Dgpd = group_groupoid(sc.D.group, "D")
    i = GroupoidFunctor(Hgpd, Ggpd, [0],
                        np.array(sc.H.to_ambient, dtype=np.int32), name="i")
    d_in_h = [sc.H.from_ambient[a] for a in sc.D.to_ambient]
    j = GroupoidFunctor(Dgpd, Hgpd, [0], np.array(d_in_h, dtype=np.int32),
                        name="j")
    return Ggpd, Hgpd, Dgpd, i, j


def _module_for(cfg: Config, sc: Scenario, which: str, group: str) -> FpModule:
    targets = {"G": (sc.G, None), "H": (sc.H.group, sc.H), "D": (sc.D.group, sc.D)}
    if group not in targets:
        raise InputError("--group must be one of G, H, D")
    grp, emb = targets[group]
    if which == "regular":
        return regular_module(grp, cfg.p)
    if which == "trivial":
        return trivial_module(grp, cfg.p)
    path = Path(which)
    if not path.exists():
        raise InputError(f"module argument {which!r} is neither a builtin nor a file")
    try:
        mod = module_from_json(json.loads(path.read_text()))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"cannot read module {which}: {exc}")
    if mod.p != cfg.p:
        raise InputError(f"module file is over GF({mod.p}), "
                         f"the scenario over GF({cfg.p})")
    if not mod.group.same_group(grp):
        raise InputError("module file group does not match the requested group")
    return mod


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


def _component_summary(gpd) -> list[dict]:
    return [
        {"objects": len(c.objects), "aut_order": c.aut_order}
        for c in gpd.components
    ]


def run_isocomma(cfg: Config, sc: Scenario, left: str, right: str) -> dict:
    Ggpd, Hgpd, Dgpd, i, j = _chain_functors(sc)
    legs = {"G": identity_functor(Ggpd), "H": i,
            "D": GroupoidFunctor(Dgpd, Ggpd, [0],
                                 np.array(sc.D.to_ambient, dtype=np.int32))}
    if left not in legs or right not in legs:
        raise InputError("isocomma legs must be G, H or D")
    from .groupoids import isocomma

    iso = isocomma(legs[left], legs[right])
    return {
        "command": "isocomma",
        "left": left,
        "right": right,
        "objects": iso.groupoid.n_objects,
        "morphisms": iso.groupoid.n_morphisms,
        "components": _component_summary(iso.groupoid),
    }


def run_partial(cfg: Config, sc: Scenario) -> dict:
    Ggpd, Hgpd, Dgpd, i, j = _chain_functors(sc)
    idh = identity_functor(Hgpd)
    splits = {
        "dd": (partial(i, j, j), sc.families.x_pairs),
        "hd": (partial(i, idh, j), sc.families.y_pairs),
        "hh": (partial(i, idh, idh), sc.families.u_pairs),
    }
    out = {"command": "partial", "boundaries": {}}
    ok = True
    for key, (res, fam_pairs) in splits.items():
        comps = res.boundary_components
        matched = []
        amb_to_b = res.ambient_to_boundary_objects()
        b_comp_of = res.boundary.component_of()
        for g, S in fam_pairs:
            ginv = int(sc.G.inv[g])
            sub = int(amb_to_b[res.ambient.object_index(0, 0, ginv)])
            comp_idx = int(b_comp_of[sub]) if sub >= 0 else -1
            agree = (comp_idx >= 0
                     and comps[comp_idx].aut_order == S.order)
            ok = ok and agree
            matched.append({
                "coset_rep": cycle_string(sc.G.elements[g]),
                "subgroup_order": S.order,
                "component": comp_idx,
                "stabilizer_match": agree,
            })
        out["boundaries"][key] = {
            "components": _component_summary(res.boundary),
            "matched_double_cosets": matched,
        }
        ok = ok and len(comps) == len(fam_pairs)
    geo_ok, _ = geography_check(i, j, j)
    fact = tricky_factorization(i, j)
    out["verdicts"] = {
        "boundary_matches_families": ok,
        "geography": geo_ok,
        "factorization_strict": fact.strict_on_objects and fact.strict_on_morphisms,
    }
    return out


def run_families(cfg: Config, sc: Scenario) -> dict:
    def fam_rows(pairs):
        return [
            {
                "coset_rep": cycle_string(sc.G.elements[g]),
                "subgroup_order": S.order,
                "subgroup_generators": [
                    cycle_string(sc.G.elements[x]) for x in S.generator_indices
                ],
            }
            for g, S in pairs
        ]

    return {
        "command": "families",
        "normalizer_condition": sc.normalizer_condition,
        "X": fam_rows(sc.families.x_pairs),
        "Y": fam_rows(sc.families.y_pairs),
        "U": fam_rows(sc.families.u_pairs),
        "X_classes": [S.order for S in sc.families.x_classes],
        "Y_classes": [S.order for S in sc.families.y_classes],
        "U_classes": [S.order for S in sc.families.u_classes],
    }


def run_decompose(cfg: Config, sc: Scenario, module: str, group: str) -> dict:
    M = _module_for(cfg, sc, module, group)
    dec = decompose(M, cfg.seed)
    return {
        "command": "decompose",
        "module": module,
        "group": group,
        "dim": M.dim,
        "summands": [
            {
                "dim": mod.dim,
                "multiplicity": mult,
                "certificate": {
                    "end_dim": cert.end_dim,
                    "radical_dim": cert.radical_dim,
                    "residue_degree": cert.residue_degree,
                },
            }
            for (mod, mult), cert in zip(dec.summands, dec.certificates)
        ],
        "dims_multiset": dec.dims_multiset(),
    }


def run_vertex(cfg: Config, sc: Scenario, module: str, group: str) -> dict:
    M = _module_for(cfg, sc, module, group)
    res = vertex(M, cfg.seed)
    return {
        "command": "vertex",
        "module": module,
        "group": group,
        "dim": M.dim,
        "vertex_order": res.vertex.order,
        "vertex_generators": [
            cycle_string(res.vertex.ambient.elements[x])
            for x in res.vertex.generator_indices
        ],
        "source_dim": res.source.dim,
    }


def run_correspond(cfg: Config, sc: Scenario) -> dict:
    elig = eligible_modules(sc, "H", cfg.seed)
    pairs = []
    for idx, n in enumerate(elig):
        m = correspondent_up(n, sc, cfg.seed)
        back = correspondent_down(m, sc, cfg.seed)
        from .decompose import _iso_indec

        pairs.append({
            "n": f"H:d{n.dim}#{idx}",
            "dim_n": n.dim,
            "dim_m": m.dim,
            "round_trip": _iso_indec(n, back),
        })
    return {"command": "correspond", "pairs": pairs}


def run_verify(cfg: Config, sc: Scenario) -> tuple[dict, bool]:
    report = verify_scenario(sc, cfg.seed)
    doc = report.to_dict()
    doc["command"] = "verify"
    return doc, report.all_pass


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _dump_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _families_tsv(doc: dict) -> str:
    lines = ["family\tcoset_rep\tsubgroup_order\tsubgroup_generators"]
    for fam in ("X", "Y", "U"):
        for row in doc.get(fam, []):
            gens = ",".join(row["subgroup_generators"]) or "()"
            lines.append(
                f"{fam}\t{row['coset_rep']}\t{row['subgroup_order']}\t{gens}")
    return "\n".join(lines) + "\n"


def _ff_tsv(doc: dict) -> str:
    lines = ["n1\tn2\tqdim_H\tqdim_G\tequal"]
    for row in doc.get("ff_table", []):
        lines.append(f"{row['n1']}\t{row['n2']}\t{row['qdim_H']}"
                     f"\t{row['qdim_G']}\t{row['equal']}")
    return "\n".join(lines) + "\n"


def _emit(doc: dict, cfg: Config, out_dir: str | None, stem: str) -> None:
    doc = {"schema_version": SCHEMA_VERSION, **doc}
    payload = _dump_json(doc)
    extras: list[tuple[str, str]] = []
    if doc.get("command") == "families":
        extras.append((f"{stem}_families.tsv", _families_tsv(doc)))
    if doc.get("command") == "verify":
        extras.append((f"{stem}_ff_table.tsv", _ff_tsv(doc)))
    if out_dir:
        base = Path(out_dir)
        base.mkdir(parents=True, exist_ok=True)
        (base / f"{stem}.json").write_text(payload)
        for name, text in extras:
            (base / name).write_text(text)
    if cfg.format == "tsv" and extras:
        sys.stdout.write(extras[0][1])
    else:
        sys.stdout.write(payload)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="green",
        description="finite-groupoid calculus and the Green correspondence "
                    "over prime fields",
    )
    parser.add_argument("--version", action="version",
                        version=f"green schema {SCHEMA_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--scenario", required=True,
                         help="path to the scenario config JSON")
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--format", choices=("json", "tsv"), default=None)
        cmd.add_argument("--out", default=None,
                         help="directory for report files")
        if name == "isocomma":
            cmd.add_argument("--left", default="H", choices=("G", "H", "D"))
            cmd.add_argument("--right", default="D", choices=("G", "H", "D"))
        if name in ("decompose", "vertex"):
            cmd.add_argument("--module", default="regular",
                             help="regular, trivial, or a module JSON file")
            cmd.add_argument("--group", default="G", choices=("G", "H", "D"))
    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = Config.from_file(args.scenario)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.format is not None:
            cfg.format = args.format
        if args.out is not None:
            cfg.out = args.out
        sc = cfg.scenario()
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        ok = True
        if args.command == "isocomma":
            doc = run_isocomma(cfg, sc, args.left, args.right)
        elif args.command == "partial":
            doc = run_partial(cfg, sc)
            ok = all(doc["verdicts"].values())
        elif args.command == "families":
            doc = run_families(cfg, sc)
        elif args.command == "decompose":
            doc = run_decompose(cfg, sc, args.module, args.group)
        elif args.command == "vertex":
            doc = run_vertex(cfg, sc, args.module, args.group)
        elif args.command == "correspond":
            doc = run_correspond(cfg, sc)
            ok = all(p["round_trip"] for p in doc["pairs"])
        elif args.command == "verify":
            doc, ok = run_verify(cfg, sc)
        else:  # pragma: no cover
            raise InputError(f"unknown command {args.command}")
        _emit(doc, cfg, cfg.out, args.command)
        return 0 if ok else 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TheoremViolationError, UndecidedError) as exc:
        print(f"defect: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
