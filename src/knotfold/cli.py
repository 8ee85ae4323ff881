"""Command-line interface: build, certify, export, table.

Exit codes: 0 success, 1 certification failure, 2 usage or input error.
Outputs carry no timestamps, so identical configurations produce
byte-identical files; random inputs embed their seed in every filename
so failures replay exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import corpus as corpus_mod
from .alexander import alexander, project, same_knot_certificate
from .bounds import (
    BoundCheck,
    Provenance,
    certify,
    comparator_bounds,
    theorem_len_bound,
    theorem_rop_bound,
)
from .diagram import r1_reduced_code, same_r1_reduced_code
from .errors import KnotfoldError, MalformedInput
from .grid import GridDiagram, grid_to_planar, parse_grid, random_grid
from .lattice import parse_lattice, serialize_lattice, validate_lattice
from .laurent import LaurentPoly
from .pipeline import run_pipeline
from .rope import check_density, export_geometry, rope_metrics, smooth


def _steps_arg(text: str) -> int:
    mapping = {"1": 1, "1-2": 2, "1-2-3": 3}
    if text not in mapping:
        raise argparse.ArgumentTypeError(f"steps must be one of {sorted(mapping)}")
    return mapping[text]


def _parse_random_spec(text: str) -> tuple[int, int, int]:
    fields = {}
    for part in text.split(","):
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in ("g", "seed", "count"):
            raise argparse.ArgumentTypeError(f"unknown key {key!r}: use g, seed and count")
        if key in fields:
            raise argparse.ArgumentTypeError(f"key {key!r} given twice")
        fields[key] = value.strip()
    try:
        g = int(fields["g"])
        seed = int(fields.get("seed", "0"))
        count = int(fields.get("count", "1"))
    except (KeyError, ValueError) as exc:
        raise argparse.ArgumentTypeError(
            "random spec must look like g=7,seed=1,count=10"
        ) from exc
    if count < 1:
        raise argparse.ArgumentTypeError(f"count must be at least 1, not {count}")
    return g, seed, count


def _read_input(path: str) -> str:
    """The text of an input file, which must be UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"{path} is not UTF-8 text: {exc}") from exc


def _resolve_inputs(args) -> list[tuple[Provenance, GridDiagram, LaurentPoly | None]]:
    """Each input's provenance (step None), diagram and expected Alexander polynomial."""
    inputs = []
    if args.corpus:
        names = []
        for chunk in args.corpus:
            names.extend(n.strip() for n in chunk.split(",") if n.strip())
        if any(n.lower() == "all" for n in names):
            names = corpus_mod.corpus_names()
        for name in names:
            entry = corpus_mod.get_entry(name)
            prov = Provenance(
                label=entry.name,
                g=entry.g,
                crossing_number=entry.crossing_number,
                nonalternating_prime=entry.nonalternating_prime,
                known_minimum_edges=entry.known_minimum_edges,
            )
            inputs.append((prov, entry.diagram, entry.alexander))
    for path in args.input or ():
        diagram = parse_grid(_read_input(path))
        inputs.append((Provenance(label=Path(path).stem, g=diagram.size), diagram, None))
    if args.random:
        g, seed, count = args.random
        for s in range(seed, seed + count):
            inputs.append((Provenance(label=f"random_g{g}_s{s}", g=g), random_grid(g, s), None))
    if not inputs:
        raise KnotfoldError("no inputs: use --corpus, --input, or --random")
    return inputs


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", action="append", metavar="NAME[,NAME...]",
                   help="built-in diagrams by name, or 'all'")
    p.add_argument("--input", action="append", metavar="FILE",
                   help="grid diagram text file")
    p.add_argument("--random", type=_parse_random_spec, metavar="g=G,seed=S,count=N",
                   help="seeded random diagrams")
    p.add_argument("--steps", type=_steps_arg, default=3, metavar="1|1-2|1-2-3",
                   help="pipeline prefix to run (default 1-2-3)")
    p.add_argument("--out", default="out", metavar="DIR", help="output directory")


def _provenance_dict(prov: Provenance, step: int, sides) -> dict:
    """The lattice-file header of one stage; `_read_provenance` reads it back."""
    header = {
        "source": prov.label,
        "g": prov.g,
        "step": step,
        "sides": ",".join(sides) if sides else "",
    }
    if prov.crossing_number is not None:
        header["crossing_number"] = prov.crossing_number
    if prov.nonalternating_prime:
        header["nonalternating_prime"] = "true"
    if prov.known_minimum_edges is not None:
        header["known_minimum_edges"] = prov.known_minimum_edges
    return header


def _provenance_int(header: dict, key: str) -> int | None:
    """An integer field of a lattice-file header, or None when absent."""
    if key not in header:
        return None
    value = header[key]
    try:
        if isinstance(value, (int, str)) and not isinstance(value, bool):
            return int(value)
    except ValueError:
        pass
    raise MalformedInput(f"provenance {key} must be an integer, not {value!r}")


def _read_provenance(header: dict, label: str) -> Provenance | None:
    """The provenance, labelled `label`, that a lattice-file header records; None without g."""
    g = _provenance_int(header, "g")
    step = _provenance_int(header, "step")
    if step not in (None, 1, 2, 3):
        raise MalformedInput(f"provenance step must be 1, 2 or 3, not {step}")
    if g is None:
        return None
    flag = header.get("nonalternating_prime")
    if "nonalternating_prime" in header and flag != "true":
        raise MalformedInput(f"provenance nonalternating_prime must be 'true', not {flag!r}")
    prov = Provenance(
        label=label,
        g=g,
        step=step,
        crossing_number=_provenance_int(header, "crossing_number"),
        nonalternating_prime=flag == "true",
        known_minimum_edges=_provenance_int(header, "known_minimum_edges"),
    )
    # Diao, J. Knot Theory Ramifications 2 (1993): a nontrivial lattice knot has 24 edges or more
    floor = 24 if (prov.crossing_number or 0) >= 3 else 0
    if prov.known_minimum_edges is not None and prov.known_minimum_edges < floor:
        raise MalformedInput(f"provenance known_minimum_edges {prov.known_minimum_edges} is below {floor}")
    # only --corpus writes these three fields, and then from the entry that `source` names
    source = header.get("source")
    entry = corpus_mod.find_entry(source) if isinstance(source, str) else None
    claims = ("crossing_number", "nonalternating_prime", "known_minimum_edges")
    if entry and header.keys() & set(claims):
        wrong = [f"{f} {getattr(prov, f)!r} (corpus {getattr(entry, f)!r})"
                 for f in ("g", *claims) if getattr(prov, f) != getattr(entry, f)]
        if wrong:
            raise MalformedInput(f"provenance disagrees with corpus entry {entry.name}: " + ", ".join(wrong))
    return prov


def cmd_build(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for prov, diagram, _ in _resolve_inputs(args):
        result = run_pipeline(diagram, max_step=args.steps)
        report_lines = []
        for step in sorted(result.stages):
            stage = result.stages[step]
            header = _provenance_dict(prov, step, stage.sides)
            base = out / f"{prov.label}.step{step}"
            base.with_name(base.name + ".txt").write_text(serialize_lattice(stage.knot, header))
            base.with_name(base.name + ".json").write_text(
                serialize_lattice(stage.knot, header, form="json") + "\n"
            )
            c = stage.census
            report_lines.append(
                f"step {step}: edges {c.x_edges}/{c.y_edges}/{c.z_edges} "
                f"total {c.total_edges} corners {c.corners} sides {','.join(stage.sides) or '-'}"
            )
            if stage.report is not None:
                r = stage.report
                report_lines.append(
                    f"  fold {r.fold_axis} side {r.side} line {r.fold_line}: "
                    f"overlap removed {r.removed_overlap_edges}, z removed {r.removed_z_edges}, "
                    f"broken sticks {r.broken_sticks_reconnected} "
                    f"(+{r.added_y_edges}y +{r.added_z_edges}z)"
                )
        (out / f"{prov.label}.reports.txt").write_text("\n".join(report_lines) + "\n")
        totals = " ".join(
            f"step{k}={result.stages[k].census.total_edges}" for k in sorted(result.stages)
        )
        print(f"{prov.label}: g={prov.g} {totals}")
    return 0


def _certify_spec(prov: Provenance, diagram: GridDiagram, expected: LaurentPoly | None,
                  max_step: int):
    """One certificate per pipeline stage, each with the stage's Alexander check.

    `settle` puts every vertical strand above every horizontal one, so the
    step-1 projection is the grid diagram plus Reidemeister I kinks.  When
    its R1-reduced signed Gauss code matches the grid diagram's, the two
    are the same knot and step 1's polynomial is the base one; otherwise
    it is computed.  Either way the certificate's bytes are the same.
    Steps 2 and 3 are always computed: a fold is not a local move.
    """
    result = run_pipeline(diagram, max_step=max_step)
    base = grid_to_planar(diagram)
    base_poly = alexander(base)
    corpus_check = None
    if expected is not None:
        verdict = same_knot_certificate(base_poly, expected)
        corpus_check = BoundCheck(
            "alexander_matches_corpus",
            f"{base_poly} vs {expected.normalize()}",
            verdict == "consistent",
        )
    certificates = []
    for step in sorted(result.stages):
        stage = result.stages[step]
        cert = certify(stage.knot, replace(prov, step=step))
        pd = project(stage.knot)
        same = step == 1 and same_r1_reduced_code(pd, base)
        stage_poly = base_poly if same else alexander(pd)
        verdict = same_knot_certificate(base_poly, stage_poly)
        checks = cert.checks + (
            BoundCheck("alexander_preserved", f"{stage_poly} vs {base_poly}", verdict == "consistent"),
        )
        if corpus_check is not None:
            checks = checks + (corpus_check,)
        certificates.append(
            replace(cert, checks=checks, passed=all(c.passed for c in checks))
        )
    return certificates


def cmd_certify(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    all_pass = True
    if args.lattice:
        for path in args.lattice:
            knot, header = parse_lattice(_read_input(path))
            label = header.get("source", Path(path).stem)
            prov = _read_provenance(header, label)
            if prov is None:
                report = validate_lattice(knot)
                ok = report.ok
                print(f"{label}: {'PASS' if ok else 'FAIL ' + str(report)}")
                all_pass &= ok
                continue
            # the crossing number is at most the crossing count of any diagram
            if prov.crossing_number is not None and validate_lattice(knot).ok:
                count = len(r1_reduced_code(project(knot))) // 2
                if prov.crossing_number > count:
                    raise MalformedInput(
                        f"provenance crossing_number {prov.crossing_number} exceeds the "
                        f"{count} crossings of the knot's R1-reduced projection"
                    )
            cert = certify(knot, prov)
            print(cert.render_text())
            all_pass &= cert.passed
        return 0 if all_pass else 1
    for prov, diagram, expected in _resolve_inputs(args):
        certificates = _certify_spec(prov, diagram, expected, args.steps)
        text = "\n".join(c.render_text() for c in certificates) + "\n"
        (out / f"{prov.label}.cert.txt").write_text(text)
        (out / f"{prov.label}.cert.json").write_text(
            json.dumps([c.as_dict() for c in certificates], indent=2, sort_keys=True) + "\n"
        )
        for cert in certificates:
            status = "PASS" if cert.passed else "FAIL"
            print(f"{prov.label} step {cert.step}: {status} "
                  f"(total edges {cert.census.total_edges})")
            all_pass &= cert.passed
    return 0 if all_pass else 1


def cmd_export(args) -> int:
    if args.format in ("polyline", "both"):
        check_density(args.density)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for prov, diagram, _ in _resolve_inputs(args):
        result = run_pipeline(diagram, max_step=args.steps)
        metric_lines = []
        for step in sorted(result.stages):
            stage = result.stages[step]
            sk = smooth(stage.knot)
            metrics = rope_metrics(sk)
            base = out / f"{prov.label}.step{step}"
            if args.format in ("polyline", "both"):
                base.with_name(base.name + ".polyline.txt").write_text(
                    export_geometry(sk, "polyline", density=args.density)
                )
            if args.format in ("arcs", "both"):
                base.with_name(base.name + ".arcs.txt").write_text(
                    export_geometry(sk, "arcs")
                )
            line = (
                f"{prov.label} step {step}: length {metrics.length:.12f} "
                f"thickness {metrics.thickness_radius:.12f} "
                f"ropelength {metrics.ropelength:.12f} corners {metrics.corner_count}"
            )
            metric_lines.append(line)
            print(line)
        (out / f"{prov.label}.metrics.txt").write_text("\n".join(metric_lines) + "\n")
    return 0


def _crossing_range(text: str) -> tuple[int, int]:
    spec = text.replace("c=", "")
    lo, _, hi = spec.partition("..")
    try:
        lo_i = int(lo)
        hi_i = int(hi) if hi else lo_i
    except ValueError as exc:
        raise argparse.ArgumentTypeError("crossing range must look like 3..16") from exc
    if lo_i > hi_i:
        raise argparse.ArgumentTypeError(f"crossing range {lo_i}..{hi_i} is empty")
    return lo_i, hi_i


def cmd_table(args) -> int:
    lo, hi = args.table
    cols = [
        "c",
        "len_general",
        "len_nonalt_prime",
        "rop_general",
        "rop_nonalt_prime",
        "diao_len",
        "diao_rop",
        "cantarella_rop",
        "prior_len",
    ]
    rows = ["\t".join(cols)]
    for c in range(lo, hi + 1):
        lg = theorem_len_bound(c)
        ln = theorem_len_bound(c, nonalternating_prime=True)
        rg = theorem_rop_bound(c)
        rn = theorem_rop_bound(c, nonalternating_prime=True)
        comps = {b.formula_id: b for b in comparator_bounds(c)}
        rows.append(
            "\t".join(
                [
                    str(c),
                    str(lg.value),
                    str(ln.value),
                    f"{float(rg.value):.6f}",
                    f"{float(rn.value):.6f}",
                    f"{float(comps['diao_len'].value):.6f}",
                    f"{float(comps['diao_rop'].value):.6f}",
                    f"{float(comps['cantarella_rop'].value):.6f}",
                    str(comps["prior_len"].value),
                ]
            )
        )
    print("\n".join(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knotfold",
        description="Fold grid diagrams into short lattice knots, certify the "
        "edge-count and ropelength bounds, and export smooth rope geometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="run the pipeline and write lattice files")
    _add_input_args(p_build)
    p_build.set_defaults(func=cmd_build)

    p_cert = sub.add_parser("certify", help="run the pipeline and check every bound")
    _add_input_args(p_cert)
    p_cert.add_argument("--lattice", action="append", metavar="FILE",
                        help="certify a previously built lattice file instead")
    p_cert.set_defaults(func=cmd_certify)

    p_exp = sub.add_parser("export", help="smooth the pipeline outputs and export geometry")
    _add_input_args(p_exp)
    p_exp.add_argument("--format", choices=("polyline", "arcs", "both"), default="both")
    p_exp.add_argument("--density", type=int, default=32,
                       help="polyline samples per arc, 8..4096 (default 32); "
                            "each coordinate is printed with .17g")
    p_exp.set_defaults(func=cmd_export)

    p_tab = sub.add_parser("table", help="print the bound table for a crossing range")
    p_tab.add_argument("--table", type=_crossing_range, default=(3, 16),
                       metavar="c=LO..HI", help="crossing number range (default 3..16)")
    p_tab.set_defaults(func=cmd_table)
    return parser


# built on the first call to main, not at import, and reused by later calls
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except KnotfoldError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
