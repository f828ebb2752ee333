"""Command-line front end: one subcommand per experiment, plus two dumps.

    systolab baseline | proposition | general | zoll | pu | scale | conjecture
             [--config cfg.json] [--out report.csv] [--format csv|json]
             [--t 0.05,-0.05] [--seed 7]
    systolab funk-scan [--config cfg.json] [--out scan.csv]
    systolab systole   [--config cfg.json] [--out report.json] [--format csv|json]
             [--t 0.1] [--seed 7]

Each experiment prints one line per row and exits nonzero when any row
fails its bound, so a run doubles as a shell-scriptable check.  --config
points at a JSON file with ExperimentConfig fields (f in the coefficient
format of SphericalFunction.to_json, a list of (l, m, value) triples, or
null for the round sphere); flags override the file.  Every subcommand
parses its settings with ExperimentConfig.from_json, so an invalid config
ends every one of them with "error: ..." and exit status 2.
"""

import argparse
import json
import sys

from .errors import IOFailure, SystolabError
from .experiments import (
    ExperimentConfig,
    _csv_text,
    _funk_scan_csv,
    _json_text,
    _metric_for,
    _write_text,
    emit_report,
    run_experiment,
    write_funk_scan,
)
from .geodesics import estimate_systole
from .metric import area, systolic_ratio

#: Experiment kind, default direction, default t values and help text of
#: each subcommand.  funk-scan and systole read the direction of
#: general_direction, whose metric is the normalized variation.
_Y20 = [[2, 0, 1.0]]
_COMMANDS = {
    "baseline": ("baseline", None, (0.0,),
                 "round metric: area, systole, ratio at their round values"),
    "proposition": ("proposition", _Y20, (-0.1, -0.05, 0.05, 0.1),
                    "ratio > 1/pi along a mean-zero conformal variation"),
    "general": ("general_direction", [[0, 0, 1.0], [2, 0, 1.0]], (-0.1, -0.05, 0.05, 0.1),
                "normalized variation of an arbitrary direction"),
    "zoll": ("zoll_first_order", [[3, 0, 1.0]], (0.1, 0.05),
             "first-order Zoll family: circle lengths 2*pi + O(t^2)"),
    "pu": ("pu_even", _Y20, (-0.1, -0.05, 0.05, 0.1),
           "even directions keep ratio >= 1/pi"),
    "scale": ("scale_invariance", _Y20, (0.1,),
              "ratio is invariant under rescaling the metric"),
    "conjecture": ("conjecture_probe", [[1, 0, 1.0], [2, 0, 1.0]], (0.02, 0.05, 0.1),
                   "emit the sharp-constant probe without asserting it"),
    "funk-scan": ("general_direction", _Y20, (0.0,),
                  "dump the Funk transform of f on an axis grid"),
    "systole": ("general_direction", _Y20, (0.1,),
                "estimate the systole of the variation at each t"),
}


#: Columns of the systole CSV report.
SYSTOLE_COLUMNS = ("t", "systole", "witness_length", "ratio", "curvature_min", "warnings")


def _parse_t_list(text):
    try:
        values = tuple(float(s) for s in text.split(",") if s.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"could not parse {text!r} as a comma-separated list of t")
    if not values:
        raise argparse.ArgumentTypeError("expected a comma-separated list of t")
    return values


def _config(args):
    """The subcommand's ExperimentConfig: defaults, then the config file, then flags.

    An invalid setting becomes a SystolabError, so every subcommand reports
    it the same way.
    """
    kind, default_f, default_t, _ = _COMMANDS[args.command]
    settings = {"f": default_f, "t_values": default_t}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise IOFailure(f"could not read config {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise SystolabError(f"config {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise SystolabError(f"config {args.config} is not a JSON object")
        settings.update(loaded)
    # funk-scan registers --config and --out only
    for flag, key in (("t", "t_values"), ("seed", "seed"), ("out", "out"), ("format", "format")):
        value = getattr(args, flag, None)
        if value is not None:
            settings[key] = value
    settings["kind"] = kind
    try:
        return ExperimentConfig.from_json(settings)
    except (TypeError, ValueError) as exc:
        raise SystolabError(f"invalid config: {exc}") from exc


_EXTRA_LABELS = (
    ("conjecture_probe", "probe"),
    ("zoll_linear_max", "linear"),
    ("zoll_quad_ratio", "quad_ratio"),
    ("scale_ratio_dev", "scale_dev"),
)


def _print_rows(kind, rows):
    for row in rows:
        line = (
            f"t={row.t:+.6f}  area={row.area:.9f}  systole={row.systole:.9f}"
            f"  ratio={row.ratio:.9f}  ratio-1/pi={row.ratio_minus_inv_pi:+.3e}"
        )
        for key, label in _EXTRA_LABELS:
            if key in row.extras:
                line += f"  {label}={row.extras[key]:.6g}"
        line += f"  bound={'PASS' if row.bound_check else 'FAIL'}"
        if row.warnings:
            line += f"  [{'; '.join(row.warnings)}]"
        print(line)
    passed = sum(1 for row in rows if row.bound_check)
    print(f"{kind}: {passed}/{len(rows)} rows pass")


def _run_experiment_command(cfg):
    rows = run_experiment(cfg)
    _print_rows(cfg.kind, rows)
    if cfg.out:
        emit_report(rows, cfg.out, fmt=cfg.fmt)
        print(f"report written to {cfg.out}")
    return 0 if all(row.bound_check for row in rows) else 1


def _run_funk_scan(cfg):
    if cfg.out:
        write_funk_scan(cfg.f, cfg.out)
        print(f"funk scan written to {cfg.out}")
    else:
        print(_funk_scan_csv(cfg.f), end="")
    return 0


def _run_systole(cfg):
    records = []
    for t in cfg.t_values:
        g = _metric_for(cfg, t)
        report = estimate_systole(g, n=cfg.n, seed=cfg.seed)
        ratio = systolic_ratio(area(g), report.systole)
        print(
            f"t={t:+.6f}  systole={report.systole:.12f}  ratio={ratio:.9f}"
            f"  curvature_min={report.curvature_min:.6f}"
            + (f"  [{'; '.join(report.warnings)}]" if report.warnings else "")
        )
        records.append({"t": t, "ratio": ratio, **report.to_json()})
    if cfg.out:
        if cfg.fmt == "json":
            text = _json_text(records)
        else:
            text = _csv_text(SYSTOLE_COLUMNS, (
                [r[c] for c in SYSTOLE_COLUMNS[:-1]] + ["; ".join(r["warnings"])]
                for r in records
            ))
        _write_text(cfg.out, text, "systole report")
        print(f"systole report written to {cfg.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="systolab",
        description="systolic-ratio experiments on conformal spheres",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (*_, text) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="JSON file with ExperimentConfig fields")
        p.add_argument("--out", help="write the report to this path")
        if name == "funk-scan":
            continue
        p.add_argument("--format", choices=("csv", "json"))
        p.add_argument(
            "--t",
            type=_parse_t_list,
            help="comma-separated t values (overrides the config)",
        )
        p.add_argument("--seed", type=int, help="seed for the systole estimator")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _config(args)
        if args.command == "funk-scan":
            return _run_funk_scan(cfg)
        if args.command == "systole":
            return _run_systole(cfg)
        return _run_experiment_command(cfg)
    except SystolabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
