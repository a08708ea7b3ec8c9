"""Byte-identity corpus: run a fixed set of CLI argv in-process and record
what each one prints, so that two versions of the package can be compared.

    PYTHONPATH=src python tests/corpus.py out.json          # the 583 argv
    PYTHONPATH=src python tests/corpus.py out.json --grid   # and the 90 points
    python tests/corpus.py --diff before.json after.json

A run writes ``{argv: [exit code, stdout, stderr]}`` as JSON, the argv joined
by spaces; every Python warning an argv raises is printed to its stderr.
``--diff`` prints each argv whose record differs between two files, and the
lines that differ, then a summary: how many argv of each file print no
document (nothing on stdout), and by row id over the ``verify`` documents
the ids found in one file only, how many of the differing argv are equal
once those ids' rows are dropped and the documents re-serialized as the
CLI writes them, how many are equal once every row's note is dropped
instead, each id's status changes (PASS -> FAIL and the like) with
their argv, and the argv whose exit code changed.

The 583 argv (581 distinct: the README's triple is the first frozen
triple) are the default ``spectrum``, ``sweep`` and ``verify``, the inverse
``spectrum`` and ``verify`` of the README's triple, ``spectrum``,
``sweep`` and ``verify`` at each of the 27 corners omega_bar in
{0.2, 1, 4}, rho_q in {0.1, 1, 3}, d in {0.2, 1, 3}, inverse
``spectrum`` and ``verify`` at the five frozen triples, ``spectrum``,
``sweep`` and ``verify`` at one extreme point, and 400 ``wavefunctions``:
both sides, the n-lists of ``WAVE_N_LISTS`` and the grids of ``WAVE_GRIDS``
(from 1e-300 to 1e300, and points z <= 0; the last grid stops at 1e8,
below z = 1e154, where the states leave the float range and the first
grid's argv exit 3, so its rows at z = 1e-300 and 1e-200 are written) at
the default point, one box corner, r = 1e-30, omega_hat = 1e150 and the
extreme point, and the 250
levels of ``spectrum --n-max 249`` at the default point and at the corner
(0.2, 0.1, 3).  The last 82 write their tables as csv: 80
``wavefunctions --format csv`` (both sides, the n-lists of
``WAVE_N_LISTS`` and the five points, on the second grid of
``WAVE_GRIDS``, since a state leaves the float range at z = 1e154 of the
first one and no table is written) and ``spectrum --n-max 249 --format
csv`` at its two points; every other argv writes the default JSON.
``--grid`` adds ``verify --n-max 2`` at omega_bar = 1 on the 10 x 9 grid
of r = rho_q and omega_hat, with d = omega_hat / (3/2 + r).
pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import difflib
import io
import itertools
import json
import sys
import warnings

CORNERS = ("0.2", "1", "4"), ("0.1", "1", "3"), ("0.2", "1", "3")
EXTREME = ["--omega-bar", "6.68e-34", "--rho-q", "6.77e-52",
           "--d", "3.21e-121"]
GRID_R = (1e-30, 1e-20, 1e-12, 1e-8, 1e-4, 1e-2, 1.0, 10.0, 1e2, 1e3)
GRID_OMEGA_HAT = (1e-150, 1e-100, 1e-30, 1e-6, 1.0, 1e6, 1e30, 1e100,
                  1e150)
WAVE_N_LISTS = ("0", "1", "5", "17", "40", "200", "0,1,5", "3,2,2")
WAVE_GRIDS = ("1e-300,1e-200,1e-30,1e-3,0.31,1,1.7,10,1e8,1e154,1e300",
              "1e-30,1e-3,0.31,1,1.7,10", "-1,0,0.31,1,2.5", "0,-2",
              "1e-300,1e-200,1e-30,1e-3,0.31,1,1.7,10,1e8")
WAVE_POINTS = ([], ["--omega-bar", "0.2", "--rho-q", "3", "--d", "0.2"],
               ["--rho-q", "1e-30", "--d", repr(1 / 1.5)],
               ["--d", repr(1e150 / 2.5)], EXTREME)


def _inverse(triple) -> list[str]:
    om, al, be = triple
    return ["--mode", "inverse", "--omega", repr(om), "--alpha", repr(al),
            "--beta", repr(be)]


def byte_identity_argv() -> list[list[str]]:
    """The 583 argv of the byte-identity run."""
    from conftest import FEASIBLE_TRIPLES

    argv = [["spectrum"], ["sweep"], ["verify"]]
    argv += [[cmd] + _inverse(FEASIBLE_TRIPLES[0])
             for cmd in ("spectrum", "verify")]
    for ob, rq, d in itertools.product(*CORNERS):
        point = ["--omega-bar", ob, "--rho-q", rq, "--d", d]
        argv += [[cmd] + point for cmd in ("spectrum", "sweep", "verify")]
    argv += [[cmd] + _inverse(t) for t in FEASIBLE_TRIPLES
             for cmd in ("spectrum", "verify")]
    argv += [[cmd] + EXTREME for cmd in ("verify", "spectrum", "sweep")]
    argv += [["wavefunctions", "--side", side, "--n-list", ns, "--z-grid", z]
             + point for side in ("plus", "minus") for ns in WAVE_N_LISTS
             for z in WAVE_GRIDS for point in WAVE_POINTS]
    spectrum_points = ([], ["--omega-bar", "0.2", "--rho-q", "0.1",
                            "--d", "3"])
    argv += [["spectrum", "--n-max", "249"] + point
             for point in spectrum_points]
    argv += [["wavefunctions", "--side", side, "--n-list", ns, "--z-grid",
              WAVE_GRIDS[1], "--format", "csv"] + point
             for side in ("plus", "minus") for ns in WAVE_N_LISTS
             for point in WAVE_POINTS]
    argv += [["spectrum", "--n-max", "249", "--format", "csv"] + point
             for point in spectrum_points]
    return argv


def grid_argv() -> list[list[str]]:
    """``verify --n-max 2`` on the r x omega_hat grid at omega_bar = 1."""
    return [["verify", "--omega-bar", "1", "--rho-q", repr(r),
             "--d", repr(oh / (1.5 + r)), "--n-max", "2"]
            for r in GRID_R for oh in GRID_OMEGA_HAT]


def run_one(argv: list[str]) -> list:
    """[exit code, stdout, stderr] of one in-process ``swanson`` run."""
    from swanson.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("always")
        code = main(argv)
    return [code, out.getvalue(), err.getvalue()]


def diff(path_a: str, path_b: str) -> int:
    """Print each argv whose record differs, and the differing lines;
    returns the number of such argv."""
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    changed = 0
    for key in sorted(set(a) | set(b)):
        if a.get(key) == b.get(key):
            continue
        changed += 1
        print(key)
        if key not in a or key not in b:
            print(f"  only in {path_a if key in a else path_b}")
            continue
        if a[key][0] != b[key][0]:
            print(f"  exit code {a[key][0]} -> {b[key][0]}")
        for name, i in (("stdout", 1), ("stderr", 2)):
            for line in difflib.unified_diff(
                    a[key][i].splitlines(), b[key][i].splitlines(),
                    lineterm="", n=0):
                if line[:1] in "+-" and line[:3] not in ("+++", "---"):
                    print(f"  {name} {line}")
    print(f"{changed} of {len(set(a) | set(b))} argv differ")
    row_summary(a, b, path_a, path_b)
    return changed


def _statuses(record: list) -> dict[str, str]:
    """{id: status} of the rows of a ``verify`` document, {} for any other
    output."""
    try:
        doc = json.loads(record[1])
    except ValueError:
        return {}
    if not isinstance(doc, dict) or "identities" not in doc:
        return {}
    return {e["id"]: e["status"] for e in doc["identities"] + doc["errata"]}


def _without(record: list, ids: set, notes: bool = False) -> list:
    """The record with the rows of ``ids`` dropped from its ``verify``
    document, and every row's note too when ``notes`` is set, re-serialized
    as the CLI writes JSON (indent 2 and a final newline); any other record
    as it is."""
    if not _statuses(record):
        return record
    doc = json.loads(record[1])
    for part in ("identities", "errata"):
        doc[part] = [{key: value for key, value in e.items()
                      if not (notes and key == "note")}
                     for e in doc[part] if e["id"] not in ids]
    return [record[0], json.dumps(doc, indent=2) + "\n", record[2]]


def row_summary(a: dict, b: dict, path_a: str, path_b: str) -> None:
    """Print how many argv of each file print nothing to stdout, then the
    ids found in one file only, the differing argv equal without them, the
    differing argv equal without row notes, the status changes per id and
    the exit-code changes, over the argv both files hold."""
    only = {path_a: collections.Counter(), path_b: collections.Counter()}
    moves = collections.defaultdict(list)
    exits = []
    for key in sorted(set(a) & set(b)):
        if a[key][0] != b[key][0]:
            exits.append(f"{key}: {a[key][0]} -> {b[key][0]}")
        sa, sb = _statuses(a[key]), _statuses(b[key])
        only[path_a].update(sa.keys() - sb.keys())
        only[path_b].update(sb.keys() - sa.keys())
        for name in sorted(sa.keys() & sb.keys()):
            if sa[name] != sb[name]:
                moves[(name, sa[name], sb[name])].append(key)
    for path, record in ((path_a, a), (path_b, b)):
        print(f"argv with no document in {path}: "
              f"{sum(not r[1] for r in record.values())}")
    for path, ids in only.items():
        print(f"ids only in {path}: " + (", ".join(
            f"{name} ({n} argv)" for name, n in sorted(ids.items()))
            or "none"))
    dropped = set(only[path_a]) | set(only[path_b])
    differing = [key for key in set(a) & set(b) if a[key] != b[key]]
    equal = sum(_without(a[key], dropped) == _without(b[key], dropped)
                for key in differing)
    print(f"differing argv equal once those ids are dropped: {equal} of "
          f"{len(differing)}")
    equal = sum(_without(a[key], set(), notes=True)
                == _without(b[key], set(), notes=True) for key in differing)
    print(f"differing argv equal once row notes are dropped: {equal} of "
          f"{len(differing)}")
    print(f"status changes: {len(moves) or 'none'}")
    for (name, old, new), keys in sorted(moves.items()):
        print(f"  {name} {old} -> {new} at {len(keys)} argv")
        for key in keys:
            print(f"    {key}")
    print(f"exit code changes: {len(exits) or 'none'}")
    for line in exits:
        print(f"  {line}")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("out", nargs="?", help="the JSON file to write")
    p.add_argument("--grid", action="store_true",
                   help="also run the 90-point r x omega_hat grid")
    p.add_argument("--diff", nargs=2, metavar=("A", "B"),
                   help="compare two corpus files instead of running")
    args = p.parse_args()
    if args.diff:
        return 1 if diff(*args.diff) else 0
    if not args.out:
        p.error("give the output file or --diff A B")
    argv = byte_identity_argv() + (grid_argv() if args.grid else [])
    record = {" ".join(a): run_one(a) for a in argv}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
