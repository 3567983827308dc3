"""Command-line front end: sweeps, table reproduction, verification runs.

Exit codes: 0 success, 1 verification failure, 2 usage error (argparse),
3 illegal parameter or domain error, 4 internal consistency error or any
unexpected exception (traceback on stderr), 141 (128 + SIGPIPE) quietly when
stdout closes before the output ends.
All JSON/CSV output is deterministic for identical invocations.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import os
import sys
import traceback

from . import forms, norms, oracle, quadratic, verify
from .codifferent import monogenicity_certificate
from .errors import (
    CertificateFailure,
    ConsistencyError,
    IllegalParameter,
    IndecompError,
    NonIntegralTrace,
    RefinementLimit,
)
from .families import inventory
from .order_kernel import (
    Family,
    FieldSpec,
    OrderElement,
    isolate_roots,
    make_field,
    norm,
    unit_generators,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_INTERNAL = 4
EXIT_BROKEN_PIPE = 141

def element_json(el: OrderElement) -> dict:
    return {
        "coords": list(el.coords),
        "family": el.field.family.value,
        "a": el.field.a,
    }


def codiff_json(delta) -> dict:
    return {"numerator": list(delta.numerator.coords), "denominator": "fprime"}


def _open(path, mode="r", **kwargs):
    """open(), with an unusable path reported as a domain error that names it."""
    try:
        return open(path, mode, **kwargs)
    except OSError as exc:
        raise IllegalParameter(f"cannot open {path}: {exc.strerror}") from None


_ascii = json.encoder.encode_basestring_ascii
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _json_text(value, indent: str = "\n") -> str:
    """The text of json.dumps(value, indent=2), whose encoder is pure Python once
    indent is set, with one join per container; other types raise TypeError."""
    kind = type(value)
    if kind is int:
        return repr(value)
    if kind is str:
        return _ascii(value)
    if value is None or kind is bool:
        return _CONSTANTS[value]
    if kind is float:
        return json.dumps(value)
    inner = indent + "  "
    # ints, the most common items, skip the recursive call
    if kind is list or kind is tuple:
        items = [repr(v) if type(v) is int else _json_text(v, inner) for v in value]
        ends = "[]"
    elif kind is dict:
        items = []
        for k, v in value.items():
            if type(k) is not str:
                raise TypeError("cannot write a dict as JSON (object keys must be str)")
            items.append(_ascii(k) + ": " + (repr(v) if type(v) is int else _CONSTANTS[v]
                         if v is None or type(v) is bool else _json_text(v, inner)))
        ends = "{}"
    else:
        raise TypeError(f"cannot write a {kind.__name__} as JSON (object keys must be str)")
    if not items:
        return ends
    return ends[0] + inner + ("," + inner).join(items) + indent + ends[1]


def _emit(payload: dict, args, rows=None, header=None) -> None:
    payload = {"schema": SCHEMA_VERSION, **payload}
    if getattr(args, "json", None):
        text = _json_text(payload) + "\n"
        with _open(args.json, "w") as fh:
            fh.write(text)
    if getattr(args, "csv", None):
        with _open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)


def _field(args) -> FieldSpec:
    return make_field(Family(args.family), args.a)


def cmd_field_info(args) -> int:
    field = _field(args)
    ri = isolate_roots(field)
    us = unit_generators(field)
    info = {
        "family": field.family.value,
        "a": field.a,
        "minpoly": list(field.minpoly),
        "discriminant": field.discriminant,
        "roots": [[str(iv.lo), str(iv.hi)] for iv in ri.intervals],
        "fundamental_units": [element_json(u) for u in us.fundamental],
        "totally_positive_units": [element_json(u) for u in us.totally_positive],
    }
    if field.family is Family.SIMPLEST_CUBIC:
        info["monogenic"] = monogenicity_certificate(field).value
        info["order"] = norms.monogenic_label(field.a)
    print(f"{field!r}")
    print(f"  discriminant: {info['discriminant']}")
    for key in ("monogenic", "order"):
        if key in info:
            print(f"  {key}: {info[key]}")
    print(f"  roots: {[f'[{lo}, {hi}]' for lo, hi in info['roots']]}")
    print(f"  fundamental units: {[u['coords'] for u in info['fundamental_units']]}")
    print(f"  totally positive units: {[u['coords'] for u in info['totally_positive_units']]}")
    _emit(info, args)
    return EXIT_OK


def cmd_indecomposables(args) -> int:
    field = _field(args)
    records = inventory(field)
    rows = []
    for rec in records:
        cert = ""
        if rec.certificate is not None:
            cert = f"trace {rec.certificate[1]}"
        rows.append(
            (rec.kind, *("%d" % c for c in rec.element.coords), norm(rec.element), cert)
        )
    print(f"{len(records)} indecomposable representatives for {field!r}")
    for row in rows:
        print("  " + " ".join(str(x) for x in row))
    payload = {
        "family": field.family.value,
        "a": field.a,
        "count": len(records),
        "records": [
            {
                "kind": rec.kind,
                "element": element_json(rec.element),
                "norm": norm(rec.element),
                "certificate": None
                if rec.certificate is None
                else {"delta": codiff_json(rec.certificate[0]), "trace": rec.certificate[1]},
            }
            for rec in records
        ],
    }
    ok = True
    if args.verify_oracle:
        ok = verify.inventory_matches_search(field)
        payload["oracle_match"] = ok
        print(f"oracle match: {ok}")
    _emit(payload, args, rows=rows, header=("kind", "v1", "v2", "v3", "norm", "certificate"))
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def _positive_int(text: str) -> int:
    """argparse type of --threads: an integer >= 1."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return n


def _coords(text: str) -> tuple[int, int, int]:
    """argparse type of --elem: exactly three comma-separated integers."""
    try:
        coords = tuple(int(c) for c in text.split(","))
    except ValueError:
        coords = ()
    if len(coords) != 3:
        raise argparse.ArgumentTypeError(f"expected three integers v1,v2,v3, got {text!r}")
    return coords


def cmd_min_trace(args) -> int:
    field = _field(args)
    el = OrderElement(args.elem, field)
    result = oracle.min_trace(el, t_max=args.tmax)
    if result is None:
        print(f"min trace > {args.tmax}")
        _emit({"element": element_json(el), "t": None, "t_max": args.tmax}, args)
        return EXIT_OK
    t, witness = result
    print(f"min trace: {t}  witness numerator: {witness.numerator.coords}")
    _emit(
        {"element": element_json(el), "t": t, "witness": codiff_json(witness)},
        args,
    )
    return EXIT_OK


def cmd_count_norms(args) -> int:
    a, X = args.a, args.x
    if args.method == "fast":
        pairs = norms.count_fast(a, X, include_unit=args.include_unit)
        count = len(pairs)
        extra = {"pairs": pairs}
    elif args.method == "exact":
        count = norms.count_exact(a, X, include_unit=args.include_unit)
        extra = {}
    else:
        count = norms.count_bruteforce(a, X, include_unit=args.include_unit)
        extra = {}
    print(f"P_{a}({X}) [{args.method}] = {count}")
    _emit({"a": a, "x": X, "method": args.method, "count": count, **extra}, args)
    return EXIT_OK


def _sq_row(a: int) -> tuple[int, int]:
    return a, norms.sq_count(a)


def cmd_sq_table(args) -> int:
    done = _read_resume(args.resume) if args.resume and os.path.exists(args.resume) else {}
    # the largest row to compute, found from the top: refused before any row
    # is computed, and before the whole range is certified
    for a in range(args.a_max, args.a_min - 1, -1):
        if a not in done and norms.certified_simplest(a):
            norms.sq_guard(a)
            break
    targets = [a for a in range(args.a_min, args.a_max + 1) if norms.certified_simplest(a)]
    todo = [a for a in targets if a not in done]
    workers = min(args.threads, len(todo))
    if workers > 1:
        # imported here: the pool machinery (multiprocessing, socket, ...)
        # would otherwise load on every CLI call
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            for a, sq in pool.map(_sq_row, todo):
                done[a] = sq
                _write_resume(args.resume, done)
    else:
        for a in todo:
            done[a] = norms.sq_count(a)
            _write_resume(args.resume, done)
    rows = [(a, done[a]) for a in targets]
    print("a,sq(a)")
    for a, sq in rows:
        print(f"{a},{sq}")
    _emit(
        {"a_min": args.a_min, "a_max": args.a_max, "rows": [[a, sq] for a, sq in rows]},
        args,
        rows=rows,
        header=("a", "sq"),
    )
    return EXIT_OK


def _read_resume(path) -> dict[int, int]:
    """Rows of a --resume checkpoint: a JSON object of integer keys and values."""
    with _open(path) as fh:
        try:
            done = {int(k): v for k, v in json.load(fh).items()}
            if all(type(v) is int for v in done.values()):
                return done
        except (ValueError, AttributeError):  # not JSON, no .items(), or a non-integer key
            pass
    raise IllegalParameter(f"malformed resume file {path}: need an object of integers")


def _write_resume(path, done) -> None:
    if not path:
        return
    text = json.dumps({str(k): v for k, v in sorted(done.items())}, indent=0) + "\n"
    with _open(path, "w") as fh:
        fh.write(text)


def cmd_bounds(args) -> int:
    field = _field(args)
    payload = dataclasses.asdict(forms.rank_report(field))
    for key, value in payload.items():
        print(f"{key}: {value}")
    _emit(payload, args)
    return EXIT_OK


def cmd_quadratic(args) -> int:
    D = args.d
    cf = quadratic.cf_expand(D)
    n, s_count = quadratic.quad_counts(D)
    payload = {"D": D, "u0": cf.u0, "period": list(cf.period), "n": n, "s_count": s_count}
    print(f"xi_{D} = [{cf.u0}; {list(cf.period)} repeating], n = {n}, #S = {s_count}")
    ok = True
    if args.certify:
        certs = []
        for i in range(-1, 2 * cf.period_length, 2):
            try:
                numerator = list(quadratic.trace_one_numerator(D, i))
                certs.append({"i": i, "numerator": numerator, "ok": True})
            except CertificateFailure as exc:
                if i == 1:
                    raise  # the scaling record below rests on the i = 1 certificate
                certs.append({"i": i, "ok": False, "error": str(exc)})
                ok = False
        # the record of `trace_one_delta_scalings(D, 1)`: the literal numerator
        # is D times the checked one, so it pairs to D when D = 1 mod 4
        one_mod_four = cf.field.one_mod_four
        scaling = {"passing": "literal/D" if one_mod_four else "direct",
                   "literal_trace": D if one_mod_four else 1}
        payload["certificates"] = certs
        payload["scaling"] = scaling
        print(f"certificates: {sum(c['ok'] for c in certs)}/{len(certs)} pass; scaling "
              f"resolution: {scaling['passing']} (literal pairs to {scaling['literal_trace']})")
    _emit(payload, args)
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def cmd_verify(args) -> int:
    results = verify.run_suite(args.suite)
    failed = False
    for res in results:
        print(res.line())
        failed = failed or not res.passed
    payload = {
        "suite": args.suite,
        "results": [
            {"name": r.name, "passed": r.passed, "details": r.details} for r in results
        ],
    }
    _emit(payload, args)
    return EXIT_VERIFY_FAIL if failed else EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and shared by every `main` call."""
    parser = argparse.ArgumentParser(
        prog="indecomp",
        description="Indecomposable integers, codifferent traces, small norms and "
        "universal form bounds in cubic and quadratic fields.",
        epilog="Exit codes: 0 ok, 1 verification failure, 2 usage, 3 domain error, "
        "4 internal error, 141 stdout closed early.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family(p):
        named = sorted(f.value for f in Family if f is not Family.CUSTOM_CUBIC)
        p.add_argument("--family", choices=named, required=True)
        p.add_argument("--a", type=int, required=True)

    def add_exports(p, tabular=False):
        p.add_argument("--json", metavar="PATH", help="write JSON output")
        if tabular:
            p.add_argument("--csv", metavar="PATH", help="write CSV output")

    p = sub.add_parser("field-info", help="minimal polynomial, roots, units")
    add_family(p)
    add_exports(p)
    p.set_defaults(func=cmd_field_info)

    p = sub.add_parser("indecomposables", help="closed-form indecomposable inventory")
    add_family(p)
    p.add_argument("--verify-oracle", action="store_true",
                   help="cross-check against the exhaustive window search")
    add_exports(p, tabular=True)
    p.set_defaults(func=cmd_indecomposables)

    p = sub.add_parser("min-trace", help="minimal trace over the totally positive codifferent")
    add_family(p)
    p.add_argument("--elem", required=True, metavar="v1,v2,v3", type=_coords)
    p.add_argument("--tmax", type=int, default=10)
    add_exports(p)
    p.set_defaults(func=cmd_min_trace)

    p = sub.add_parser("count-norms", help="primitive principal ideals of norm <= X")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--method", choices=("fast", "exact", "brute"), default="exact")
    p.add_argument("--include-unit", action="store_true")
    add_exports(p)
    p.set_defaults(func=cmd_count_norms)

    p = sub.add_parser("sq-table", help="squarefree-norm counts over certified a")
    p.add_argument("--a-min", type=int, default=-1)
    p.add_argument("--a-max", type=int, default=50)
    p.add_argument("--threads", type=_positive_int, default=1,
                   help="worker processes, at most one per row to compute (default: 1)")
    p.add_argument("--resume", metavar="PATH", help="JSON checkpoint of completed rows")
    add_exports(p, tabular=True)
    p.set_defaults(func=cmd_sq_table)

    p = sub.add_parser("bounds", help="universal quadratic form rank bounds")
    add_family(p)
    add_exports(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("quadratic", help="continued fraction data for Q(sqrt(D))")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--certify", action="store_true",
                   help="verify trace-one certificates over two periods")
    add_exports(p)
    p.set_defaults(func=cmd_quadratic)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all",
                   choices=sorted(verify.SUITES) + ["all"])
    add_exports(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # `--elem V` as `--elem=V`: argparse would read a V such as -1,-6,2 as an option
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--elem":
            argv[i : i + 2] = [f"--elem={argv[i + 1]}"]
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:  # the reader left (`| head`): the rest goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (NonIntegralTrace, RefinementLimit, ConsistencyError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except IndecompError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
