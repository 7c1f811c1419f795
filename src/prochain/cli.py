"""Batch front end: parse a workspace, dispatch one subcommand, write
deterministic TSV reports.

DISPATCH is the one place where a command's operands are declared: main
checks their count, parses the integers and looks up the objects, then
calls the handler with them.

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


def cmd_homology(ws, rep, args, X):
    from .chain import homology
    rep.write(f"homology_{args.names[0]}.tsv", ["degree", "group"],
              [[str(n), str(homology(X, n))]
               for n in range(X.lo - 1, X.hi + 2)])


def cmd_derived_hom(ws, rep, args, X, Y, n):
    from .chain import derived_hom
    g = derived_hom(X, Y, n)
    rep.write(f"derived_hom_{args.names[0]}_{args.names[1]}_{n}.tsv",
              ["n", "group"], [[str(n), str(g)]])


def cmd_truncate(ws, rep, args, X, n):
    from .chain import homology
    from .tstruct import truncate_above, truncate_below_free
    if args.mode == "above":
        T, _ = truncate_above(X, n)
    else:
        T, _ = truncate_below_free(X, n)
    rows = [[str(m), str(T.rank(m)), str(homology(T, m))]
            for m in range(T.lo - 1, T.hi + 2)]
    rep.write(f"truncate_{args.mode}_{args.names[0]}_{n}.tsv",
              ["degree", "rank", "homology"], rows)


def cmd_classify(ws, rep, args, f):
    from .tstruct import classify_map
    c = classify_map(f)
    rep.write(f"classify_{args.names[0]}.tsv",
              ["max_n_equivalence", "min_co_n_equivalence", "weak_equivalence"],
              [[fmt_class(c.max_n_equivalence), fmt_class(c.min_co_n_equivalence),
                str(c.is_weak_equivalence).lower()]])


def cmd_factor(ws, rep, args, f, n):
    from .tstruct import factor_n, is_co_n_fibration, is_n_cofibration
    i, p = factor_n(f, n)
    rows = [["i_is_n_cofibration", str(is_n_cofibration(i, n)).lower()],
            ["p_is_co_n_fibration", str(is_co_n_fibration(p, n)).lower()],
            ["composite_equals_f", str(p.compose(i).equal(f)).lower()],
            ["middle_total_rank", str(i.target.total_rank())]]
    rep.write(f"factor_{args.names[0]}_{n}.tsv", ["check", "value"], rows)


def cmd_lift(ws, rep, args, i, p, top, bottom, n):
    from .tstruct import find_lift
    h = find_lift(i, p, top, bottom, n)
    name = f"lift_{args.names[0]}_{args.names[1]}_{n}.tsv"
    if h is None:
        rep.write(name, ["found"], [["false"]])
    else:
        rep.write(name, ["found", "upper_triangle", "lower_triangle"],
                  [["true", str(h.compose(i).equal(top)).lower(),
                    str(p.compose(h).equal(bottom)).lower()]])


def cmd_cohomology(ws, rep, args, X, A, p):
    from .tstruct import cohomology_with_coefficients
    g = cohomology_with_coefficients(X, A, p)
    rep.write(f"cohomology_{args.names[0]}_{args.names[1]}_{p}.tsv",
              ["p", "group"], [[str(p), str(g)]])


def cmd_pro_iso(ws, rep, args, f):
    from .pro import is_pro_isomorphism
    v = is_pro_isomorphism(f)
    rows = [["verdict", v.kind]]
    if v:
        rows.append(["witness_levels", ";".join(map(str, v.witness_levels))])
    else:
        rows.append(["certificate_level", str(v.certificate_level)])
    rep.write(f"pro_iso_{args.names[0]}.tsv", ["field", "value"], rows)


def cmd_limlim1(ws, rep, args, T):
    from .pro import lim_lim1
    r = lim_lim1(T)
    rows = [["lim", str(r.lim)], ["lim1", r.lim1.value],
            ["mittag_leffler", str(r.mittag_leffler).lower()]]
    rep.write(f"limlim1_{args.names[0]}.tsv", ["field", "value"], rows)


def cmd_prohom(ws, rep, args, X, Y):
    from .pro import pro_hom
    v = pro_hom(X, Y)
    rep.write(f"prohom_{args.names[0]}_{args.names[1]}.tsv",
              ["group"], [[str(v)]])


def cmd_whitehead(ws, rep, args, f):
    from .prohomotopy import is_hstar_weak_equivalence
    v = is_hstar_weak_equivalence(f)
    rows = [["verdict", v.verdict]]
    if v.reason:
        rows.append(["reason", v.reason])
    if v.m_witness is not None:
        rows.append(["m_witness", str(v.m_witness)])
    rep.write(f"whitehead_{args.names[0]}.tsv", ["field", "value"], rows)


def cmd_postnikov(ws, rep, args, Y):
    from .chain import homology_support
    from .prohomotopy import is_hstar_weak_equivalence, postnikov_replacement
    Z, canon = postnikov_replacement(Y)
    v = is_hstar_weak_equivalence(canon)
    rows = [["entries", str(Z.tail.start + 1)],
            ["tail", "constant" if Z.tail.is_constant else "repeat"],
            ["canonical_map_verdict", v.verdict]]
    for k in range(Z.tail.start + 1):
        sup = homology_support(Z.entry(k))
        rows.append([f"entry_{k}_homology_window",
                     "empty" if sup is None else f"[{sup[0]},{sup[1]}]"])
    rep.write(f"postnikov_{args.names[0]}.tsv", ["field", "value"], rows)


def cmd_fibrant_check(ws, rep, args, Y):
    from .prohomotopy import is_hstar_fibrant
    rep.write(f"fibrant_{args.names[0]}.tsv", ["fibrant"],
              [[str(is_hstar_fibrant(Y)).lower()]])


def cmd_prohom_const(ws, rep, args, X, Y, n):
    from .chain import ChainComplex
    from .pro import Tower
    from .prohomotopy import hom_from_constant, hom_to_constant

    def is_tower(T):  # of complexes, not of groups
        return isinstance(T, Tower) and isinstance(T.entry(0), ChainComplex)

    name = f"prohom_const_{args.names[0]}_{args.names[1]}_{n}.tsv"
    if is_tower(X) and isinstance(Y, ChainComplex):
        v = hom_to_constant(X, Y, n)
        rep.write(name, ["direction", "group"], [["to_constant", str(v)]])
    elif isinstance(X, ChainComplex) and is_tower(Y):
        r = hom_from_constant(X, Y, n)
        rep.write(name, ["direction", "value", "lim", "lim1"],
                  [["from_constant", str(r.value), str(r.lim), r.lim1.value]])
    else:
        raise ProchainError("prohom-const needs one tower and one complex")


def cmd_ahss(ws, rep, args, X, Y):
    from .ahss import on_minimal_models
    ss = on_minimal_models(X, Y)
    pages, stable = ss.run_to_stable()
    base = f"ahss_{args.names[0]}_{args.names[1]}"
    for page in pages:
        rows = [[str(p), str(q), ",".join(str(d) for d in g.invariant_factors),
                 str(g.free_rank)] for (p, q), g in sorted(page.groups.items())]
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


def cmd_pro_ahss(ws, rep, args, X, Y, *window):
    from .ahss import pro_ahss
    report = pro_ahss(X, Y, window or None)
    base = f"pro_ahss_{args.names[0]}_{args.names[1]}"
    rows = [[str(p), str(q), str(g)] for (p, q), g in sorted(report.e2.items())]
    rep.write(f"{base}_e2.tsv", ["p", "q", "group"], rows)
    rows = [[str(n), str(g)] for n, g in sorted(report.abutment.items())]
    rep.write(f"{base}_abutment.tsv", ["n", "group"], rows)
    rows = [["levelwise_all_iso", str(report.levelwise_all_iso).lower()],
            ["comparison_holds", str(report.comparison_holds).lower()]]
    verdicts = [[f"slot_{p}_{q}", v] for (p, q), v in sorted(report.slot_comparison.items())]
    verdicts += [[f"total_{n}", v] for n, v in sorted(report.total_comparison.items())]
    rows += [row for row in verdicts if row[1] != "iso"]
    rep.saw_unknown |= any(v == "unknown" for _, v in verdicts)
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


# command -> (handler, operand kinds).  This is the one place a command's
# operands are declared: a kind of workspace.lookup for an object name, None
# for an object of any kind (prohom-const takes a tower and a complex in
# either order), int for an integer.  pro-ahss may leave out its window.
DISPATCH = {
    "homology": (cmd_homology, ("complex",)),
    "truncate": (cmd_truncate, ("complex", int)),
    "classify": (cmd_classify, ("map",)),
    "factor": (cmd_factor, ("map", int)),
    "lift": (cmd_lift, ("map", "map", "map", "map", int)),
    "cohomology": (cmd_cohomology, ("complex", "group", int)),
    "pro-iso": (cmd_pro_iso, ("group promap",)),
    "limlim1": (cmd_limlim1, ("group tower",)),
    "prohom": (cmd_prohom, ("group tower", "group tower")),
    "whitehead": (cmd_whitehead, ("promap",)),
    "postnikov": (cmd_postnikov, ("tower",)),
    "fibrant-check": (cmd_fibrant_check, ("tower",)),
    "prohom-const": (cmd_prohom_const, (None, None, int)),
    "derived-hom": (cmd_derived_hom, ("complex", "complex", int)),
    "ahss": (cmd_ahss, ("complex", "complex")),
    "pro-ahss": (cmd_pro_ahss, ("tower", "complex", int, int)),
    "selftest": (cmd_selftest, ()),
    "roundtrip": (cmd_roundtrip, ()),
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


def _operands(ws, cmd: str, kinds: tuple, names: List[str]) -> list:
    """The operands of cmd, its integers parsed and its objects looked up.
    Each check runs over every operand before the next check starts: the
    count, the integers, pro-ahss's window ends, unknown names, kinds."""
    if cmd == "pro-ahss" and len(names) == 2:
        kinds = kinds[:2]
    if len(names) != len(kinds):
        if cmd == "pro-ahss":
            raise ProchainError("pro-ahss takes X Y [n_lo n_hi]")
        raise ProchainError(f"{cmd} takes {len(kinds)} arguments, got {len(names)}")
    operands = [_int_arg(name) if kind is int else name
                for kind, name in zip(kinds, names)]
    if cmd == "pro-ahss" and max(map(abs, operands[2:]), default=0) > MAX_WINDOW_END:
        raise ProchainError(f"pro-ahss window ends must lie within +-{MAX_WINDOW_END}")
    for kind, name in zip(kinds, names):
        if kind is not int:
            ws.lookup(name)  # every unknown name before any wrong kind
    return [v if kind is int else ws.lookup(v, kind) for kind, v in zip(kinds, operands)]


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        fn, kinds = DISPATCH[args.command]
        if args.command == "selftest":
            ws = None
        elif not args.workspace:
            raise ProchainError("--workspace is required for this command")
        else:
            ws = parse_workspace(args.workspace)
        rep = Reporter(args.out)
        fn(ws, rep, args, *_operands(ws, args.command, kinds, args.names))
        return 2 if rep.saw_unknown else 0
    except ProchainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
