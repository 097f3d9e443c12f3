"""Command line front end.

Subcommands: verify, search, bounds, project, product, paste,
run-fixtures.  Exit codes: 0 success, 1 verification failed, 2 input
error, 3 search found only the trivial clique.

Commands that create a code (search, project, product, paste) build it
once, run verify's checks on that same code, and print the new
certificate as JSON on stdout; a failed build or check prints the
failed report on stderr instead.  Diagnostics go to stderr.  Reference
paths inside a certificate resolve relative to the certificate's own
directory; the commands store them relative to the directory of --out,
so emitted certificates re-verify from any directory.
"""
from __future__ import annotations

import argparse
import importlib.resources
import json
import os
import sys
from pathlib import Path

from .bounds import bound_report
from .certificates import CertificateError, certify, load_certificate, verify_certificate
from .clique import search_clique
from .errors import DIM_CAP_ENV, DimensionCapError, IntegerRangeError, _cli_cap, dim_cap
from .graphs import WeightedGraph
from .projection import ProjectorSpec
from .verifier import check_tol


def _int_at_least(low: int):
    """The argparse type of an integer option with floor ``low``."""
    def parse(text: str) -> int:
        try:
            v = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if v < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {v}")
        return v
    return parse


_positive_int, _nonneg_int = _int_at_least(1), _int_at_least(0)


def _tolerance(text: str) -> float:
    try:
        return check_tol(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _dims_list(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"dims must be comma-separated integers, got {text!r}")
    if not dims or any(d < 2 for d in dims):
        raise argparse.ArgumentTypeError("every dimension must be >= 2")
    return dims


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixedqec",
        description="Construct, search, and certify mixed-alphabet quantum codes.")
    parser.add_argument(
        "--threads", type=_positive_int, default=1,
        help="accepted for interface compatibility; execution is single "
             "threaded and output does not depend on this value")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=_tolerance, default=1e-9,
                        help="numeric tolerance (default 1e-9)")
    common.add_argument("--dim-cap", type=_int_at_least(2), default=None,
                        help=f"state-vector dimension cap (default from "
                             f"{DIM_CAP_ENV} or 65536)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common],
                       help="re-verify a certificate file")
    p.add_argument("cert", help="certificate JSON path")
    p.add_argument("--symbolic", action="store_true",
                   help="run only the symbolic verifier (combine with --numeric to run both)")
    p.add_argument("--numeric", action="store_true",
                   help="run only the numeric verifier (combine with --symbolic to run both)")
    p.add_argument("--distance", action="store_true",
                   help="also measure the distance by direct scan")
    p.add_argument("--update", action="store_true",
                   help="write the refreshed verification block back to the file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", parents=[common],
                       help="search for a coding clique and emit a certificate")
    p.add_argument("--graph-p", required=True, metavar="FILE",
                   help="first layer graph (JSON)")
    p.add_argument("--graph-r", metavar="FILE", default=None,
                   help="second layer graph (JSON); omit for a single layer")
    p.add_argument("--distance", type=_positive_int, default=2)
    p.add_argument("--target", type=_positive_int, default=2,
                   help="stop once a clique of this size is found")
    p.add_argument("--budget", type=_nonneg_int, default=100000,
                   help="search node budget; results are deterministic per budget")
    p.add_argument("--mode", choices=("group", "set"), default="group")
    p.add_argument("--name", default=None, help="certificate name")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="also write the certificate to this path")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("bounds", help="print size bounds for given parameters")
    p.add_argument("--dims", type=_dims_list, required=True,
                   help="comma separated particle dimensions, e.g. 4,4,4,4,4,2")
    p.add_argument("--distance", type=_positive_int, required=True)
    p.add_argument("--K", type=_positive_int, default=None,
                   help="claimed size; adds a verdict to the report")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("project", parents=[common],
                       help="project an ancilla code onto kept levels")
    p.add_argument("ancilla", help="ancilla certificate path")
    p.add_argument("--keep", required=True, metavar="JSON",
                   help='kept levels per particle, 1-based, e.g. \'{"5": [0, 1]}\'')
    p.add_argument("--name", default=None)
    p.add_argument("--out", metavar="FILE", default=None)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("product", parents=[common],
                       help="tensor two codes particle-by-particle")
    p.add_argument("cert_a", help="first factor certificate")
    p.add_argument("cert_b", help="second factor certificate")
    p.add_argument("--name", default=None)
    p.add_argument("--out", metavar="FILE", default=None)
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("paste", parents=[common],
                       help="extend a distance-2 code by pasting qudit blocks")
    p.add_argument("base", help="base certificate (clique or stabilizer form)")
    p.add_argument("--blocks", type=_positive_int, default=1)
    p.add_argument("--block-dim", type=_positive_int, default=2)
    p.add_argument("--name", default=None)
    p.add_argument("--out", metavar="FILE", default=None)
    p.set_defaults(func=cmd_paste)

    p = sub.add_parser("run-fixtures", parents=[common],
                       help="verify the shipped fixture certificates")
    p.add_argument("--dir", default=None,
                   help="fixture directory (default: the packaged set)")
    p.set_defaults(func=cmd_run_fixtures)

    return parser


def _print_report(report: dict) -> None:
    print(json.dumps(report, indent=2, sort_keys=True))


def _out_dir(args) -> Path:
    out_dir = Path(args.out).parent if args.out else Path(".")
    if not out_dir.is_dir():
        raise CertificateError(f"output directory not found: {out_dir}")
    return out_dir


def _ref(path: str, out_dir: Path) -> str:
    """A command-line certificate path as a reference from ``out_dir``."""
    if Path(path).is_absolute() or out_dir == Path("."):
        return path
    return os.path.relpath(path, out_dir)


def _certify_and_emit(args, name: str, d: int, cons: dict,
                      base_dir: str | Path = ".") -> int:
    cert, report = certify(name, d, cons, base_dir, tol=args.tol)
    if report["verdict"] != "pass":
        print(json.dumps(report, indent=2, sort_keys=True), file=sys.stderr)
        return 1
    text = json.dumps(cert.to_json(), indent=2, sort_keys=True)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return 0


def cmd_verify(args) -> int:
    cert = load_certificate(args.cert)
    run_sym = args.symbolic or not (args.symbolic or args.numeric)
    run_num = args.numeric or not (args.symbolic or args.numeric)
    report = verify_certificate(cert, Path(args.cert).parent,
                                run_symbolic=run_sym, run_numeric=run_num,
                                distance=args.distance, tol=args.tol)
    _print_report(report)
    if args.update:
        cert.save(args.cert)
    return 0 if report["verdict"] == "pass" else 1


def _load_graph(path: str) -> WeightedGraph:
    try:
        g = WeightedGraph.from_json(json.loads(Path(path).read_text()))
    except FileNotFoundError as exc:
        raise CertificateError(f"graph file not found: {path}") from exc
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise CertificateError(f"bad graph file {path}: {exc}") from exc
    if g.n < 1:
        raise CertificateError(f"bad graph file {path}: a layer needs at least one vertex")
    return g


def cmd_search(args) -> int:
    _out_dir(args)  # reject a missing --out directory before searching
    graphs = [_load_graph(args.graph_p)]
    if args.graph_r is not None:
        graphs.append(_load_graph(args.graph_r))
    n = graphs[0].n
    if graphs[-1].n > n:
        raise CertificateError(f"--graph-r has {graphs[-1].n} vertices, more than "
                               f"the {n} of --graph-p; its layer must cover a prefix")
    if args.distance > n + 1:
        raise CertificateError(f"--distance {args.distance} exceeds n + 1 = {n + 1}")
    res = search_clique(graphs, d=args.distance, target_K=args.target,
                        budget=args.budget, mode=args.mode)
    clique = res.clique
    if clique.K <= 1:
        print(f"search exhausted ({res.nodes_used} nodes, flag {res.flag}): "
              f"only the trivial clique found", file=sys.stderr)
        return 3
    cons = {
        "type": "composite_clique",
        "graphs": [g.to_json() for g in clique.graphs],
        "vectors": [[list(part.entries) for part in v] for v in clique.vectors],
    }
    print(f"found K = {clique.K} after {res.nodes_used} nodes (flag {res.flag})",
          file=sys.stderr)
    return _certify_and_emit(args, args.name or f"search_K{clique.K}_d{args.distance}",
                             args.distance, cons)


def cmd_bounds(args) -> int:
    report = bound_report(args.dims, args.distance, K=args.K)
    _print_report(report.to_json())
    return 0


def cmd_project(args) -> int:
    out_dir = _out_dir(args)  # reject a missing --out directory before building
    try:
        keep = json.loads(args.keep)
        if not isinstance(keep, dict):
            raise ValueError("expected an object of particle -> levels")
    except (json.JSONDecodeError, ValueError) as exc:
        raise CertificateError(f"bad --keep value: {exc}") from exc
    anc_cert = load_certificate(args.ancilla)
    try:
        # against the claimed system, so the ancilla is built once, inside certify
        spec = ProjectorSpec.from_json(anc_cert.system, {"keep": keep})
    except (TypeError, ValueError) as exc:
        raise CertificateError(f"bad --keep value: {exc}") from exc
    cons = {
        "type": "projection",
        "ancilla": _ref(args.ancilla, out_dir),
        "projector": spec.to_json(),
    }
    return _certify_and_emit(args, args.name or f"{anc_cert.name}_projected",
                             anc_cert.d, cons, out_dir)


def cmd_product(args) -> int:
    a = load_certificate(args.cert_a)
    b = load_certificate(args.cert_b)
    out_dir = _out_dir(args)
    cons = {"type": "product",
            "refs": [_ref(args.cert_a, out_dir), _ref(args.cert_b, out_dir)]}
    return _certify_and_emit(args, args.name or f"{a.name}_x_{b.name}", a.d, cons, out_dir)


def cmd_paste(args) -> int:
    out_dir = _out_dir(args)  # reject a missing --out directory before building
    base = load_certificate(args.base)
    cons = {
        "type": "pasting",
        "refs": [_ref(args.base, out_dir)],
        "blocks": args.blocks,
        "block_dim": args.block_dim,
    }
    return _certify_and_emit(args, args.name or f"{base.name}_pasted", 2, cons, out_dir)


def _default_fixture_dir() -> Path:
    return Path(str(importlib.resources.files("mixedqec").joinpath("fixtures")))


def cmd_run_fixtures(args) -> int:
    root = Path(args.dir) if args.dir else _default_fixture_dir()
    if not root.is_dir():
        raise CertificateError(f"fixture directory not found: {root}")
    positives = sorted(root.glob("*.json"))
    negatives = sorted((root / "negatives").glob("*.json"))
    if not positives:
        raise CertificateError(f"no fixtures in {root}")
    cases = [(p, True) for p in positives] + [(p, False) for p in negatives]
    ok = 0
    skipped = 0
    for path, positive in cases:
        label = path.relative_to(root).as_posix()
        try:
            cert = load_certificate(path)
            report = verify_certificate(cert, path.parent, tol=args.tol)
        except DimensionCapError as exc:
            skipped += 1
            print(f"SKIP {label}: dimension {exc.dimension} exceeds cap {exc.cap}")
            continue
        except (CertificateError, IntegerRangeError, ValueError) as exc:
            passed, how, why = False, "rejected", str(exc)
        else:
            passed, how = report["verdict"] == "pass", "failed as expected"
            # a build that fails leaves no failures list, only an error
            why = "; ".join(report.get(
                "failures", ["?" if positive else report.get("error", "?")]))
        if passed == positive:
            ok += 1
            print(f"PASS {label}" if positive else f"PASS {label} ({how}: {why})")
        else:
            print(f"FAIL {label}: {why}" if positive
                  else f"FAIL {label}: unexpectedly verified")
    checked = len(cases) - skipped
    summary = f"{ok}/{checked} fixtures behaved as expected"
    if skipped:
        summary += f", {skipped} skipped over the dimension cap"
    print(summary)
    return 0 if ok == checked else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:  # a malformed environment cap is bad input, not a failed check
        cap = (args.dim_cap or dim_cap()) if hasattr(args, "dim_cap") else None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    token = _cli_cap.set(cap)  # what dim_cap() returns while the command runs
    try:
        return args.func(args)
    except (CertificateError, IntegerRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DimensionCapError as exc:
        print(f"error: {exc}; raise {DIM_CAP_ENV} or pass --dim-cap",
              file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        _cli_cap.reset(token)


if __name__ == "__main__":
    raise SystemExit(main())
