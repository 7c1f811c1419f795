"""The cli workload: cold-start `prochain` commands, each in a fresh
interpreter and one at a time, on a workspace file the benchmark writes.

A round is the fixed list COMMANDS.  Four invocations in it hit faults of
the command-line front end and count as failed operations until the front
end is fixed: a name of the wrong object kind escapes as a KeyError
traceback, and a non-integer degree as a ValueError traceback.  They use
only objects whose content does not depend on the seed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List

import common
import gen
import oracle
from workloads import Item, Workload, _never, _problems

INVOCATION_TIMEOUT_S = 120
# median time of refchild.py when the bounds were set; see README.md
CHILD_REF_NOMINAL_S = 0.200

VALID, CLEAN_ERROR, FAULT = "valid", "clean_error", "fault"
COMMANDS = [
    (VALID, ["homology", "X1"]),
    (VALID, ["truncate", "X1", "0"]),
    (VALID, ["classify", "f"]),
    (VALID, ["factor", "f", "0"]),
    (VALID, ["derived-hom", "X1", "X2", "0"]),
    (VALID, ["cohomology", "X1", "Z2", "1"]),
    (VALID, ["ahss", "X2", "X1"]),
    (VALID, ["pro-ahss", "tower2_Z0", "M2"]),
    (VALID, ["limlim1", "tower2_Z"]),
    (VALID, ["pro-iso", "id_tower2"]),
    (VALID, ["whitehead", "id_T"]),
    (VALID, ["postnikov", "T"]),
    (VALID, ["roundtrip"]),
    (VALID, ["classify", "f"]),              # again: reports must match byte for byte
    (CLEAN_ERROR, ["homology", "nosuch"]),
    (CLEAN_ERROR, ["classify", "f", "3"]),
    (CLEAN_ERROR, ["derived-hom", "X1", "X2"]),
    (FAULT, ["homology", "tower2_Z0"]),
    (FAULT, ["limlim1", "M2"]),
    (FAULT, ["whitehead", "id_tower2"]),
    (FAULT, ["truncate", "M2", "x"]),
]


@dataclass
class Outcome:
    code: int
    stdout: str
    stderr: str
    files: Dict[str, bytes]

    @property
    def traceback(self) -> bool:
        return "Traceback (most recent call last)" in self.stderr

    def clean_error(self) -> bool:
        lines = self.stderr.splitlines()
        return self.code == 1 and len(lines) == 1 and lines[0].startswith("error:")


# ---------------------------------------------------------------------------
# The workspace
# ---------------------------------------------------------------------------

def _rows_json(rows):
    return [[str(int(x)) for x in row] for row in rows]


def _complex_json(X: gen.Plain):
    return {"ranks": {str(n): r for n, r in sorted(X.ranks.items()) if r},
            "diffs": {str(n): _rows_json(d) for n, d in sorted(X.diffs.items())
                      if X.rank(n) and X.rank(n - 1)}}


def _map_json(src: str, tgt: str, A: gen.Plain, B: gen.Plain, comps):
    return {"source": src, "target": tgt,
            "comps": {str(n): _rows_json(c) for n, c in
                      sorted(gen.full_comps(A, B, comps).items())
                      if A.rank(n) and B.rank(n)}}


class Inputs:
    """The seeded objects of the workspace, their known homology, and the
    package's objects built from them with the constructors."""

    def __init__(self, seed: int):
        d = gen.Draw("cli", seed)
        # a sphere in degree 0 keeps `truncate X1 0` away from the zero complex
        X1, _ = gen.plain_from_summands(0, [("S", 0, 0)] + gen.summands_of_rank(
            d, -1, 2, 5, gen.multipliers(0)))
        self.X1 = gen.conjugate(X1, gen.basis_change(d.values, X1, 1.0))
        self.X2 = gen.complex_of_rank(d, 0, -1, 1, 4)
        self.X3 = gen.complex_of_rank(d, 0, -1, 1, 3)
        fspec = gen.composable_pair(d, (2, 0), total=4)[0]
        self.fspec = fspec
        self.tmaps = gen.tower_maps(d, self.X3, 2, 0)
        ident = gen.scalar(self.X3, 1)
        self.doc = {
            "ring": "Z",
            "config": {"budget_filler": 8, "budget_reindex": 8, "lim_window": 24},
            "complexes": {"X1": _complex_json(self.X1), "X2": _complex_json(self.X2),
                          "X3": _complex_json(self.X3), "A": _complex_json(fspec.A),
                          "B": _complex_json(fspec.B), "M2": _complex_json(gen.M2),
                          "Z0": _complex_json(gen.Z0)},
            "maps": {"f": _map_json("A", "B", fspec.A, fspec.B, fspec.comps),
                     "s0": _map_json("X3", "X3", self.X3, self.X3, self.tmaps[0]),
                     "s1": _map_json("X3", "X3", self.X3, self.X3, self.tmaps[1]),
                     "idX3": _map_json("X3", "X3", self.X3, self.X3, ident),
                     "times2_Z0": _map_json("Z0", "Z0", gen.Z0, gen.Z0, {0: [[2]]})},
            "groups": {"Z": {"generators": 1, "relations": []},
                       "Z2": {"generators": 1, "relations": [["2"]]}},
            "group_maps": {"g_times2": {"source": "Z", "target": "Z",
                                        "matrix": [["2"]]}},
            "towers": {"T": {"entries": ["X3", "X3", "X3"], "structure": ["s0", "s1"],
                             "tail": {"constant_from": 2}},
                       "tower2_Z0": {"entries": ["Z0"], "structure": [],
                                     "tail": {"endo": "times2_Z0", "repeat_from": 0}}},
            "group_towers": {"tower2_Z": {"entries": ["Z"], "structure": [],
                                          "tail": {"endo": "g_times2", "repeat_from": 0}}},
            "promaps": {"id_T": {"source": "T", "target": "T",
                                 "comps": ["idX3", "idX3", "idX3"]}},
            "group_promaps": {"id_tower2": {"source": "tower2_Z", "target": "tower2_Z",
                                            "comps": ["g_times2"]}},
        }
        # the map f as the package's object, for the classification oracle;
        # the tower is built once so the constructors validate it
        self.f = gen.to_map(fspec.A, fspec.B, fspec.comps)
        gen.chain_tower(self.X3, self.tmaps)

    def text(self) -> str:
        """The workspace in the package's canonical form, so `roundtrip`
        must reproduce it byte for byte."""
        return json.dumps(self.doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Expected reports
# ---------------------------------------------------------------------------

def _tsv(header, rows) -> bytes:
    return ("\t".join(header) + "\n"
            + "".join("\t".join(r) + "\n" for r in rows)).encode()


def _support(X: gen.Plain):
    d = X.degrees()
    return d.start, d.stop - 1


def _fmt_class(v) -> str:
    if v == float("inf"):
        return "+inf"
    if v == float("-inf"):
        return "-inf"
    return str(int(v))


def expected_files(inp: Inputs, args: List[str], workspace_text: str) -> Dict[str, bytes]:
    """Report files a valid command must write, by name, computed from the
    known homology (and, for `classify`, from classify_map_by_homology)."""
    cmd = args[0]
    z = oracle.ab_zero(0)
    if cmd == "homology":
        lo, hi = _support(inp.X1)
        return {"homology_X1.tsv": _tsv(["degree", "group"], [
            [str(n), oracle.fmt(inp.X1.H(n))] for n in range(lo - 1, hi + 2)])}
    if cmd == "truncate":
        X = inp.X1
        ranks = {m: X.rank(m) for m in X.ranks if m > 0}
        ranks[0] = X.rank(0) - X.diff_rank(0)
        live = [m for m, r in ranks.items() if r]
        lo, hi = min(live), max(live)
        return {"truncate_above_X1_0.tsv": _tsv(["degree", "rank", "homology"], [
            [str(m), str(ranks.get(m, 0)), oracle.fmt(X.H(m) if m >= 0 else z)]
            for m in range(lo - 1, hi + 2)])}
    if cmd == "classify":
        from prochain.tstruct import classify_map_by_homology
        c = classify_map_by_homology(inp.f)
        return {"classify_f.tsv": _tsv(
            ["max_n_equivalence", "min_co_n_equivalence", "weak_equivalence"],
            [[_fmt_class(c.max_n_equivalence), _fmt_class(c.min_co_n_equivalence),
              str(c.max_n_equivalence == float("inf")).lower()]])}
    if cmd == "derived-hom":
        g = oracle.derived_hom(inp.X1.homology, inp.X2.homology, 0, 0)
        return {"derived_hom_X1_X2_0.tsv": _tsv(["n", "group"], [["0", oracle.fmt(g)]])}
    if cmd == "cohomology":
        g = oracle.cohomology(inp.X1.homology, oracle.ab_cyclic(2), 1)
        return {"cohomology_X1_Z2_1.tsv": _tsv(["p", "group"], [["1", oracle.fmt(g)]])}
    if cmd == "limlim1":
        return {"limlim1_tower2_Z.tsv": _tsv(["field", "value"], [
            ["lim", "0"], ["lim1", "NonzeroUncountable"], ["mittag_leffler", "false"]])}
    if cmd == "whitehead":
        return {"whitehead_id_T.tsv": _tsv(["field", "value"],
                                           [["verdict", "weak_equivalence"]])}
    if cmd == "roundtrip":
        return {"workspace_canonical.json": workspace_text.encode()}
    return {}


def _check_ahss(inp: Inputs, out: Outcome) -> List[str]:
    """E2 rows against the universal coefficient theorem on the window the
    package documents, and the convergence report."""
    X, Y = inp.X2, inp.X1
    xlo, xhi = _support(X)
    ylo, yhi = _support(Y)
    want = {}
    for q in range(ylo - 1, yhi + 2):
        for n in range(ylo - xhi - 1, yhi + 2 - xlo + 1):
            g = oracle.cohomology(X.homology, Y.H(q), q - n)
            if g.free or g.torsion:
                want[(n - q, q)] = g
    errs = []
    rows = out.files.get("ahss_X2_X1_e2.tsv", b"").decode().splitlines()[1:]
    got = {}
    for line in rows:
        p, q, inv, free = line.split("\t")
        got[(int(p), int(q))] = (inv, free)
    for slot, g in want.items():
        text = (",".join(str(d) for d in oracle.invariant_factors(g)), str(g.free))
        if got.get(slot) != text:
            errs.append(f"ahss E2{slot} = {got.get(slot)}, UCT gives {text}")
    errs += _problems(set(got) <= set(want), f"ahss E2 has extra slots {set(got) - set(want)}")
    report = out.files.get("ahss_X2_X1_report.tsv", b"").decode()
    for field in ("lim_ok", "lim1_ok", "colim_ok", "graded_comparison_all_iso"):
        errs += _problems(f"{field}\ttrue\n" in report, f"ahss report: {field} is not true")
    return errs


def _check_pro_ahss(out: Outcome) -> List[str]:
    errs = []
    for name in ("e2", "abutment"):
        rows = out.files.get(f"pro_ahss_tower2_Z0_M2_{name}.tsv", b"").decode().splitlines()
        errs += _problems(len(rows) > 1 and all(r.split("\t")[-1] == "0" for r in rows[1:]),
                          f"x2 tower: {name} is not 0")
    report = out.files.get("pro_ahss_tower2_Z0_M2_report.tsv", b"")
    return errs + _problems(report == _tsv(["field", "value"], [
        ["levelwise_all_iso", "true"], ["comparison_holds", "true"]]),
        "x2 tower: report is not all iso")


def _check_valid(inp: Inputs, args, out: Outcome, ws_text: str) -> List[str]:
    cmd = args[0]
    errs = _problems(out.code == 0 and not out.stderr,
                     f"{' '.join(args)}: exit {out.code}, stderr {out.stderr[-200:]!r}")
    for name, body in expected_files(inp, args, ws_text).items():
        errs += _problems(out.files.get(name) == body,
                          f"{' '.join(args)}: {name} is {out.files.get(name)!r}, want {body!r}")
    if cmd == "factor":
        rows = dict(r.split("\t") for r in
                    out.files.get("factor_f_0.tsv", b"").decode().splitlines()[1:])
        errs += _problems(all(rows.get(k) == "true" for k in
                              ("i_is_n_cofibration", "p_is_co_n_fibration",
                               "composite_equals_f")), f"factor report {rows}")
    elif cmd == "ahss":
        errs += _check_ahss(inp, out)
    elif cmd == "pro-ahss":
        errs += _check_pro_ahss(out)
    elif cmd == "pro-iso":
        errs += _problems(out.files.get("pro_iso_id_tower2.tsv", b"").startswith(
            b"field\tvalue\nverdict\ttrue\n"), "pro-iso of x2 on the x2 tower is not true")
    elif cmd == "postnikov":
        body = out.files.get("postnikov_T.tsv", b"").decode()
        errs += _problems("canonical_map_verdict\tweak_equivalence\n" in body,
                          "postnikov: canonical map is not a weak equivalence")
    return errs


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

class Runner:
    """Runs one invocation at a time; with `trace_dir` set, through the
    tracing shim, which leaves one span file per invocation there."""

    def __init__(self, seed: int):
        self.base = os.path.join(common.OUT_DIR, "cli", str(seed))
        shutil.rmtree(self.base, ignore_errors=True)
        os.makedirs(self.base)
        self.workspace = os.path.join(self.base, "workspace.json")
        self.trace_dir = None
        self.env = dict(os.environ, PYTHONPATH=common.SRC)

    def invoke(self, k: int, args: List[str]) -> Outcome:
        out_dir = os.path.join(self.base, f"out{k}")
        shutil.rmtree(out_dir, ignore_errors=True)
        tail = args + ["--workspace", self.workspace, "--out", out_dir]
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "prochain.cli"] + tail
        else:
            cmd = [sys.executable, os.path.join(common.BENCH_DIR, "cli_shim.py"),
                   os.path.join(self.trace_dir, f"{k}.json")] + tail
        p = subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                           cwd=common.ROOT, timeout=INVOCATION_TIMEOUT_S)
        files = {}
        if os.path.isdir(out_dir):
            for name in sorted(os.listdir(out_dir)):
                with open(os.path.join(out_dir, name), "rb") as fh:
                    files[name] = fh.read()
        return Outcome(p.returncode, p.stdout, p.stderr, files)


    def ref_child(self) -> float:
        """Time one fixed cold start (refchild.py), the cli reference."""
        t = time.perf_counter()
        subprocess.run([sys.executable, os.path.join(common.BENCH_DIR, "refchild.py")],
                       check=True, cwd=common.ROOT, timeout=INVOCATION_TIMEOUT_S)
        return time.perf_counter() - t


class ShimTracer:
    """The tracer of the cli workload: every invocation runs under
    cli_shim.py, and a round's snapshot merges their span files."""

    def __init__(self, runner: Runner):
        self.runner = runner
        runner.trace_dir = os.path.join(runner.base, "spans")

    def reset(self):
        shutil.rmtree(self.runner.trace_dir, ignore_errors=True)
        os.makedirs(self.runner.trace_dir)

    def snapshot(self):
        import spans
        d = self.runner.trace_dir
        snaps = []
        for name in sorted(os.listdir(d)):
            with open(os.path.join(d, name)) as fh:
                snaps.append(json.load(fh))
        out = spans.merge(snaps)
        out["import_s"] = [s["import_s"] for s in snaps]
        out["modules_loaded"] = max(s["modules_loaded"] for s in snaps)
        return out


def build(seed: int) -> Workload:
    inp = Inputs(seed)
    runner = Runner(seed)
    ws_text = inp.text()
    with open(runner.workspace, "w") as fh:
        fh.write(ws_text)
    items = []
    for k, (kind, args) in enumerate(COMMANDS):
        def run(k=k, args=args):
            return runner.invoke(k, args)

        def digest(out):
            return (out.code, out.stderr.splitlines()[-1:] if out.stderr else [],
                    tuple(sorted(out.files.items())))
        if kind == VALID:
            check = (lambda out, args=args: _check_valid(inp, args, out, ws_text))
            failed = _never
        elif kind == CLEAN_ERROR:
            check = (lambda out, args=args: _problems(
                out.clean_error(), f"{' '.join(args)}: not one clean error line "
                                   f"(exit {out.code}, stderr {out.stderr[-200:]!r})"))
            failed = _never
        else:
            # fails every time while the fault stands; a fix must give one
            # clean error line, which the check then accepts
            check = (lambda out, args=args: _problems(
                out.traceback or out.clean_error(),
                f"{' '.join(args)}: neither the known fault nor a clean error"))
            failed = (lambda out: out.traceback)
        items.append(Item(f"cli_{args[0]}_{kind}", run, check, digest, failed))
    # the work runs in child processes, so the speed reference is a child
    # too: one fixed cold start, the same kind of work as a command, after
    # every invocation.
    ref = common.Reference(runner.ref_child, CHILD_REF_NOMINAL_S, 0.0, 1, 1.0)
    return Workload(items, lambda caches: ShimTracer(runner), ref)

