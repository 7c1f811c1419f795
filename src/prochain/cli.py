"""Batch front end: parse a workspace, dispatch one subcommand, write
deterministic TSV reports.

Exit codes: 0 success, 1 error, 2 when any output contains UNKNOWN.  Output
files are written atomically (temp file + rename) and contain no timestamps,
so identical inputs produce byte-identical outputs.  Each handler imports
what it calls, so a cold start loads only the modules its command uses.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .errors import ProchainError
from .workspace import MAX_DEGREE, parse_workspace, serialize_workspace

# the time and the report of pro-ahss grow linearly with its window, so a
# few bytes of arguments could ask for days of work; the default window of
# complexes within the workspace's degree bounds ends inside this range
MAX_WINDOW_END = 2 * MAX_DEGREE + 2


def fmt_class(v: float) -> str:
    if v == float("inf"):
        return "+inf"
    if v == float("-inf"):
        return "-inf"
    return str(int(v))


class Reporter:
    """Collects TSV tables and writes them atomically under the out dir."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.saw_unknown = False
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as e:
            raise ProchainError(f"cannot create output directory '{out_dir}': "
                                f"{e.strerror}") from None

    def write(self, name: str, header: List[str], rows: List[List[str]]):
        table = "".join("\t".join(str(c) for c in row) + "\n" for row in rows)
        self.saw_unknown |= "UNKNOWN" in table
        _write_atomic(self.out_dir, name, "\t".join(header) + "\n" + table)


def _write_atomic(out_dir: str, name: str, text: str) -> None:
    """Write text to out_dir/name through a temp file and a rename, so the
    file is either absent, the old one or the whole new one.  The temp file
    is created with mode 0666 less the umask, like any other new file."""
    path = os.path.join(out_dir, name)
    tmp = os.path.join(out_dir, f".tmp-{os.getpid()}")
    try:
        if os.path.lexists(tmp):  # left behind by a killed process with our pid
            os.unlink(tmp)
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w") as f:
                f.write(text)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError as e:
        raise ProchainError(f"cannot write '{path}': {e.strerror}") from None
    print(f"wrote {path}")


def cmd_homology(ws, rep, args):
    from .chain import homology
    X = ws.lookup(args.object, "complex")
    rep.write(f"homology_{args.object}.tsv", ["degree", "group"],
              [[str(n), str(homology(X, n))]
               for n in range(X.lo - 1, X.hi + 2)])


def cmd_derived_hom(ws, rep, args):
    from .chain import derived_hom
    X = ws.lookup(args.object, "complex")
    Y = ws.lookup(args.second, "complex")
    n = args.n
    g = derived_hom(X, Y, n)
    rep.write(f"derived_hom_{args.object}_{args.second}_{n}.tsv",
              ["n", "group"], [[str(n), str(g)]])


def cmd_truncate(ws, rep, args):
    from .chain import homology
    from .tstruct import truncate_above, truncate_below_free
    X = ws.lookup(args.object, "complex")
    n = args.n
    if args.mode == "above":
        T, _ = truncate_above(X, n)
    else:
        T, _ = truncate_below_free(X, n)
    rows = [[str(m), str(T.rank(m)), str(homology(T, m))]
            for m in range(T.lo - 1, T.hi + 2)]
    rep.write(f"truncate_{args.mode}_{args.object}_{n}.tsv",
              ["degree", "rank", "homology"], rows)


def cmd_classify(ws, rep, args):
    from .tstruct import classify_map
    f = ws.lookup(args.object, "map")
    c = classify_map(f)
    rep.write(f"classify_{args.object}.tsv",
              ["max_n_equivalence", "min_co_n_equivalence", "weak_equivalence"],
              [[fmt_class(c.max_n_equivalence), fmt_class(c.min_co_n_equivalence),
                str(c.is_weak_equivalence).lower()]])


def cmd_factor(ws, rep, args):
    from .tstruct import factor_n, is_co_n_fibration, is_n_cofibration
    f = ws.lookup(args.object, "map")
    n = args.n
    i, p = factor_n(f, n)
    rows = [["i_is_n_cofibration", str(is_n_cofibration(i, n)).lower()],
            ["p_is_co_n_fibration", str(is_co_n_fibration(p, n)).lower()],
            ["composite_equals_f", str(p.compose(i).equal(f)).lower()],
            ["middle_total_rank", str(i.target.total_rank())]]
    rep.write(f"factor_{args.object}_{n}.tsv", ["check", "value"], rows)


def cmd_lift(ws, rep, args):
    from .tstruct import find_lift
    i = ws.lookup(args.object, "map")
    p = ws.lookup(args.second, "map")
    top = ws.lookup(args.third, "map")
    bottom = ws.lookup(args.fourth, "map")
    n = args.n
    h = find_lift(i, p, top, bottom, n)
    if h is None:
        rep.write(f"lift_{args.object}_{args.second}_{n}.tsv",
                  ["found"], [["false"]])
    else:
        rep.write(f"lift_{args.object}_{args.second}_{n}.tsv",
                  ["found", "upper_triangle", "lower_triangle"],
                  [["true", str(h.compose(i).equal(top)).lower(),
                    str(p.compose(h).equal(bottom)).lower()]])


def cmd_cohomology(ws, rep, args):
    from .tstruct import cohomology_with_coefficients
    X = ws.lookup(args.object, "complex")
    A = ws.lookup(args.second, "group")
    p = args.n
    g = cohomology_with_coefficients(X, A, p)
    rep.write(f"cohomology_{args.object}_{args.second}_{p}.tsv",
              ["p", "group"], [[str(p), str(g)]])


def cmd_pro_iso(ws, rep, args):
    from .pro import is_pro_isomorphism
    f = ws.lookup(args.object, "group promap")
    v = is_pro_isomorphism(f)
    rows = [["verdict", v.kind]]
    if v:
        rows.append(["witness_levels", ";".join(str(t) for t, _, _ in v.witness)])
    else:
        rows.append(["certificate_level", str(v.certificate_level)])
    rep.write(f"pro_iso_{args.object}.tsv", ["field", "value"], rows)


def cmd_limlim1(ws, rep, args):
    from .pro import lim_lim1
    T = ws.lookup(args.object, "group tower")
    r = lim_lim1(T)
    rows = [["lim", str(r.lim)], ["lim1", r.lim1.value],
            ["mittag_leffler", str(r.mittag_leffler).lower()]]
    rep.write(f"limlim1_{args.object}.tsv", ["field", "value"], rows)


def cmd_prohom(ws, rep, args):
    from .pro import pro_hom
    X = ws.lookup(args.object, "group tower")
    Y = ws.lookup(args.second, "group tower")
    v = pro_hom(X, Y)
    rep.write(f"prohom_{args.object}_{args.second}.tsv",
              ["group"], [[str(v)]])


def cmd_whitehead(ws, rep, args):
    from .prohomotopy import is_hstar_weak_equivalence
    f = ws.lookup(args.object, "promap")
    v = is_hstar_weak_equivalence(f)
    rows = [["verdict", v.verdict]]
    if v.reason:
        rows.append(["reason", v.reason])
    if v.m_witness is not None:
        rows.append(["m_witness", str(v.m_witness)])
    rep.write(f"whitehead_{args.object}.tsv", ["field", "value"], rows)


def cmd_postnikov(ws, rep, args):
    from .chain import homology_support
    from .prohomotopy import is_hstar_weak_equivalence, postnikov_replacement
    Y = ws.lookup(args.object, "tower")
    Z, canon = postnikov_replacement(Y)
    v = is_hstar_weak_equivalence(canon)
    rows = [["entries", str(Z.tail.start + 1)],
            ["tail", "constant" if Z.tail.is_constant else "repeat"],
            ["canonical_map_verdict", v.verdict]]
    for k in range(Z.tail.start + 1):
        sup = homology_support(Z.entry(k))
        rows.append([f"entry_{k}_homology_window",
                     "empty" if sup is None else f"[{sup[0]},{sup[1]}]"])
    rep.write(f"postnikov_{args.object}.tsv", ["field", "value"], rows)


def cmd_fibrant_check(ws, rep, args):
    from .prohomotopy import is_hstar_fibrant
    Y = ws.lookup(args.object, "tower")
    rep.write(f"fibrant_{args.object}.tsv", ["fibrant"],
              [[str(is_hstar_fibrant(Y)).lower()]])


def cmd_prohom_const(ws, rep, args):
    from .prohomotopy import hom_from_constant, hom_to_constant
    n = args.n
    if args.object in ws.towers and args.second in ws.complexes:
        X = ws.towers[args.object]
        Y = ws.complexes[args.second]
        v = hom_to_constant(X, Y, n)
        rep.write(f"prohom_const_{args.object}_{args.second}_{n}.tsv",
                  ["direction", "group"],
                  [["to_constant", str(v)]])
    elif args.object in ws.complexes and args.second in ws.towers:
        X = ws.complexes[args.object]
        Y = ws.towers[args.second]
        r = hom_from_constant(X, Y, n)
        rep.write(f"prohom_const_{args.object}_{args.second}_{n}.tsv",
                  ["direction", "value", "lim", "lim1"],
                  [["from_constant", str(r.value), str(r.lim),
                    r.lim1.value]])
    else:
        raise ProchainError("prohom-const needs one tower and one complex")


def cmd_ahss(ws, rep, args):
    from .ahss import SpectralSequence
    X = ws.lookup(args.object, "complex")
    Y = ws.lookup(args.second, "complex")
    ss = SpectralSequence(X, Y)
    pages, stable = ss.run_to_stable()
    base = f"ahss_{args.object}_{args.second}"
    for page in pages:
        rows = []
        for (p, q), g in sorted(page.groups.items()):
            rows.append([str(p), str(q), ",".join(str(d) for d in g.invariant_factors),
                         str(g.free_rank)])
        rep.write(f"{base}_e{page.r}.tsv",
                  ["p", "q", "invariant_factors", "free_rank"], rows)
        # the filtration splits, so every differential is zero
        rep.write(f"{base}_d{page.r}.tsv", ["p", "q", "matrix"], [])
    report = ss.convergence()
    rows = [["lim_ok", str(report.lim_ok).lower()],
            ["lim1_ok", str(report.lim1_ok).lower()],
            ["colim_ok", str(report.colim_ok).lower()],
            ["stable_page", str(report.stable_page)],
            ["graded_comparison_all_iso",
             str(all(report.graded_comparison.values())).lower()]]
    for (p, q), ok in sorted(report.graded_comparison.items()):
        if not ok:
            rows.append([f"mismatch_at_{p}_{q}", "true"])
    rep.write(f"{base}_report.tsv", ["field", "value"], rows)


def cmd_pro_ahss(ws, rep, args):
    from .ahss import pro_ahss
    X = ws.lookup(args.object, "tower")
    Y = ws.lookup(args.second, "complex")
    window = None
    if args.n is not None and args.second_n is not None:
        window = (args.n, args.second_n)
    report = pro_ahss(X, Y, window)
    base = f"pro_ahss_{args.object}_{args.second}"
    rows = []
    for (p, q), g in sorted(report.e2.items()):
        rows.append([str(p), str(q), str(g)])
    rep.write(f"{base}_e2.tsv", ["p", "q", "group"], rows)
    rows = [[str(n), str(g)] for n, g in sorted(report.abutment.items())]
    rep.write(f"{base}_abutment.tsv", ["n", "group"], rows)
    rows = [["levelwise_all_iso", str(report.levelwise_all_iso).lower()],
            ["comparison_holds", str(report.comparison_holds).lower()]]
    for (p, q), verdict in sorted(report.slot_comparison.items()):
        if verdict != "iso":
            rows.append([f"slot_{p}_{q}", verdict])
            if verdict == "unknown":
                rep.saw_unknown = True
    for n, verdict in sorted(report.total_comparison.items()):
        if verdict != "iso":
            rows.append([f"total_{n}", verdict])
            if verdict == "unknown":
                rep.saw_unknown = True
    rep.write(f"{base}_report.tsv", ["field", "value"], rows)


def cmd_roundtrip(ws, rep, args):
    _write_atomic(rep.out_dir, "workspace_canonical.json", serialize_workspace(ws))


def cmd_selftest(ws, rep, args):
    from . import selftest
    results = selftest.run(seed=args.seed)
    rows = [[name, "pass" if ok else "FAIL"] for name, ok in results]
    rep.write("selftest.tsv", ["suite", "result"], rows)
    if not all(ok for _, ok in results):
        raise ProchainError("selftest failures")


# command -> (handler, object names, integer arguments)
DISPATCH = {
    "homology": (cmd_homology, 1, 0),
    "truncate": (cmd_truncate, 1, 1),
    "classify": (cmd_classify, 1, 0),
    "factor": (cmd_factor, 1, 1),
    "lift": (cmd_lift, 4, 1),
    "cohomology": (cmd_cohomology, 2, 1),
    "pro-iso": (cmd_pro_iso, 1, 0),
    "limlim1": (cmd_limlim1, 1, 0),
    "prohom": (cmd_prohom, 2, 0),
    "whitehead": (cmd_whitehead, 1, 0),
    "postnikov": (cmd_postnikov, 1, 0),
    "fibrant-check": (cmd_fibrant_check, 1, 0),
    "prohom-const": (cmd_prohom_const, 2, 1),
    "derived-hom": (cmd_derived_hom, 2, 1),
    "ahss": (cmd_ahss, 2, 0),
    "pro-ahss": (cmd_pro_ahss, 2, 0),
    "selftest": (cmd_selftest, 0, 0),
    "roundtrip": (cmd_roundtrip, 0, 0),
}
COMMANDS = list(DISPATCH)


def _int_arg(text: str) -> int:
    """An integer argument of a command (a degree or a window end)."""
    try:
        return int(text)
    except ValueError:
        raise ProchainError(f"expected an integer argument, got '{text}'")


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a ProchainError, so it ends like any
    other error: one line and exit code 1 (2 means UNKNOWN)."""

    def error(self, message):
        raise ProchainError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="prochain",
        description="exact truncation calculus and spectral sequences for "
                    "bounded chain complexes")
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("names", nargs="*", default=[],
                    help="object names and integer args")
    ap.add_argument("--workspace", default=None, help="workspace JSON path")
    ap.add_argument("--out", default="out", help="output directory")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--mode", choices=["above", "below"], default="above",
                    help="truncation direction for the truncate command")
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cmd = args.command
        fn, n_names, n_ints = DISPATCH[cmd]
        if cmd == "selftest":
            ws = None
        else:
            if not args.workspace:
                raise ProchainError("--workspace is required for this command")
            ws = parse_workspace(args.workspace)
        rep = Reporter(args.out)
        # unpack positional names into fields the handlers expect
        names = list(args.names)
        want = n_names + n_ints
        if cmd == "pro-ahss":
            if len(names) not in (2, 4):
                raise ProchainError("pro-ahss takes X Y [n_lo n_hi]")
        elif len(names) != want:
            raise ProchainError(f"{cmd} takes {want} arguments, got {len(names)}")
        ns = argparse.Namespace(**vars(args))
        fields = ["object", "second", "third", "fourth"]
        for idx in range(n_names):
            setattr(ns, fields[idx], names[idx])
        if cmd == "pro-ahss":
            ns.n = _int_arg(names[2]) if len(names) == 4 else None
            ns.second_n = _int_arg(names[3]) if len(names) == 4 else None
            if len(names) == 4 and max(abs(ns.n), abs(ns.second_n)) > MAX_WINDOW_END:
                raise ProchainError(f"pro-ahss window ends must lie within "
                                    f"+-{MAX_WINDOW_END}")
        elif n_ints:
            ns.n = _int_arg(names[n_names])
        if ws is not None:
            # resolve references early for a clean unknown-name error
            for idx in range(n_names):
                ws.lookup(names[idx])
        fn(ws, rep, ns)
        return 2 if rep.saw_unknown else 0
    except ProchainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
