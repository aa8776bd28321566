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
sorted keys and no timestamps, so identical configs give byte-identical
files.  The seed (``options.seed`` or ``--seed``) is accepted and must be an
integer, but no computation reads it: every step is deterministic.  Each
command is a handler ``run_<command>(sc, args) -> (report, ok)`` listed in
``COMMANDS``, which builds the subcommands and dispatches to them; a report
that fails its own checks exits 1.  Each command makes one ``Run``, whose
memo tables live for that command only.  Environment variables are never
consulted.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .boundary import geography_check, tricky_factorization
from .decompose import Run, decompose, source, vertex
from .errors import InputError, TheoremViolationError, UndecidedError
from .green import (
    SCHEMA_VERSION,
    Scenario,
    boundary_splits,
    correspondence,
    named_catalog,
    verify_scenario,
)
from .groupoids import compose_functors, identity_functor, isocomma
from .modules import (
    FpModule,
    module_from_json,
    regular_module,
    trivial_module,
)
from .permgroups import PermGroup, coerce_perm, cycle_string, json_integer, subgroup

def _json_array(value, what: str) -> list:
    """``value`` if it is a JSON array, else InputError naming it: list()
    would read a string or an object as another list of generators."""
    if not isinstance(value, list):
        raise InputError(f"malformed config: {what} must be a JSON array, "
                         f"not {value!r}")
    return value


@dataclass
class Config:
    p: int
    degree: int
    generators_G: list
    generators_H: list
    generators_D: list
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
        if not isinstance(doc, dict):
            raise InputError("malformed config: not a JSON object")
        opts = doc.get("options", {})
        if not isinstance(opts, dict):
            raise InputError("malformed config: options is not a JSON object")
        try:
            # the seed is validated and ignored: every step is deterministic
            json_integer(opts.get("seed", 0), "seed")
            cfg = cls(
                p=json_integer(doc["p"], "p"),
                degree=json_integer(doc["degree"], "degree"),
                generators_G=_json_array(doc["generators_G"], "generators_G"),
                generators_H=_json_array(doc["generators_H"], "generators_H"),
                generators_D=_json_array(doc["generators_D"], "generators_D"),
                format=str(opts.get("format", "json")),
                out=opts.get("out"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed config: {exc}")
        if cfg.out is not None and not isinstance(cfg.out, str):
            raise InputError(f"malformed config: out must be a string or "
                             f"null, not {cfg.out!r}")
        if cfg.degree < 0:
            raise InputError(f"malformed config: degree {cfg.degree} < 0")
        if cfg.format not in ("json", "tsv"):
            raise InputError(f"unknown format {cfg.format!r}")
        return cfg

    def scenario(self) -> Scenario:
        G = PermGroup(self.degree, [coerce_perm(g, self.degree)
                                    for g in self.generators_G])
        H = subgroup(G, self.generators_H, "H")
        D = subgroup(G, self.generators_D, "D")
        return Scenario.build(self.p, G, H, D, name="config")


def _module_for(sc: Scenario, which: str, group: str) -> FpModule:
    grp = {"G": sc.G, "H": sc.H.group, "D": sc.D.group}[group]
    if which == "regular":
        return regular_module(grp, sc.p)
    if which == "trivial":
        return trivial_module(grp, sc.p)
    path = Path(which)
    if not path.exists():
        raise InputError(f"module argument {which!r} is neither a builtin nor a file")
    try:
        mod = module_from_json(json.loads(path.read_text()))
    except (OSError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"cannot read module {which}: {exc}")
    if mod.p != sc.p:
        raise InputError(f"module file is over GF({mod.p}), "
                         f"the scenario over GF({sc.p})")
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


def run_isocomma(sc: Scenario, args) -> tuple[dict, bool]:
    legs = {"G": identity_functor(sc.i.codomain), "H": sc.i,
            "D": compose_functors(sc.i, sc.j)}
    iso = isocomma(legs[args.left], legs[args.right])
    return {
        "command": "isocomma",
        "left": args.left,
        "right": args.right,
        "objects": iso.groupoid.n_objects,
        "morphisms": iso.groupoid.n_morphisms,
        "components": _component_summary(iso.groupoid),
    }, True


def run_partial(sc: Scenario, args) -> tuple[dict, bool]:
    splits = boundary_splits(sc)
    out = {"command": "partial", "boundaries": {}}
    for key, split in splits.items():
        matched = [
            {
                "coset_rep": cycle_string(sc.G.elements[g]),
                "subgroup_order": S.order,
                "component": comp,
                "stabilizer_match": agree,
            }
            for (g, S), comp, agree in zip(split.pairs, split.components,
                                           split.matches)
        ]
        out["boundaries"][key] = {
            "components": _component_summary(split.result.boundary),
            "matched_double_cosets": matched,
        }
    geo_ok, _ = geography_check(sc.i, sc.j, sc.j)
    fact = tricky_factorization(sc.i, sc.j)
    out["verdicts"] = {
        "boundary_matches_families": all(s.ok for s in splits.values()),
        "geography": geo_ok,
        "factorization_strict": fact.strict_on_objects and fact.strict_on_morphisms,
    }
    return out, all(out["verdicts"].values())


def run_families(sc: Scenario, args) -> tuple[dict, bool]:
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
    }, True


def run_decompose(sc: Scenario, args) -> tuple[dict, bool]:
    M = _module_for(sc, args.module, args.group)
    dec = decompose(M, Run())
    return {
        "command": "decompose",
        "module": args.module,
        "group": args.group,
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
    }, True


def run_vertex(sc: Scenario, args) -> tuple[dict, bool]:
    M = _module_for(sc, args.module, args.group)
    run = Run()
    v = vertex(M, run)
    return {
        "command": "vertex",
        "module": args.module,
        "group": args.group,
        "dim": M.dim,
        "vertex_order": v.order,
        "vertex_generators": [
            cycle_string(v.ambient.elements[x]) for x in v.generator_indices
        ],
        "source_dim": source(M, run).dim,
    }, True


def run_correspond(sc: Scenario, args) -> tuple[dict, bool]:
    run = Run()
    pairs = [
        {"n": name, "dim_n": n.dim, "dim_m": m.dim, "round_trip": round_trip}
        for name, n, _, m, _, round_trip
        in correspondence(sc, named_catalog(sc, "H", run), run)
    ]
    return ({"command": "correspond", "pairs": pairs},
            all(p["round_trip"] for p in pairs))


def run_verify(sc: Scenario, args) -> tuple[dict, bool]:
    report = verify_scenario(sc, Run())
    if not report.correspondence_pairs:
        # the report cannot tell a vacuous pass from a checked one
        print("note: no H-module of the catalog is eligible (a D-object and "
              "not an X-object), so verify checks no pair", file=sys.stderr)
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

COMMANDS = (("isocomma", run_isocomma), ("partial", run_partial),
            ("families", run_families), ("decompose", run_decompose),
            ("vertex", run_vertex), ("correspond", run_correspond),
            ("verify", run_verify))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="green",
        description="finite-groupoid calculus and the Green correspondence "
                    "over prime fields",
    )
    parser.add_argument("--version", action="version",
                        version=f"green schema {SCHEMA_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.set_defaults(handler=handler)
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
        if args.format is not None:
            cfg.format = args.format
        if args.out is not None:
            cfg.out = args.out
        doc, ok = args.handler(cfg.scenario(), args)
        try:
            _emit(doc, cfg, cfg.out, args.command)
        except OSError as exc:
            raise InputError(f"cannot write the reports: {exc}")
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TheoremViolationError, UndecidedError) as exc:
        print(f"defect: {exc}", file=sys.stderr)
        return 1
    return 0 if ok else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
