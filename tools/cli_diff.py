"""Compare what two source trees' command lines print for one fixed list of cases.

Usage: python tools/cli_diff.py PARENT CHANGE

Each case runs ``python -m sspahp`` in a fresh process, once with
``PYTHONPATH`` set to ``PARENT/src`` and once to ``CHANGE/src``, on the same
input files: the bundled sample copied from PARENT, and a pairwise judgment
file, two plain rankings, the matrix variants of ``MATRIX_VARIANTS`` and the
inputs of ``ERROR_INPUTS`` that this script writes. Stdout, stderr, the exit
code and any ``--out`` file are compared. Each case is counted as identical,
as differing only in utility digits (every difference is a float literal
within 1e-12 of the other side, and the text around the numbers, integer
ranks included, is equal), or as differing otherwise; the first diff of each
kind is printed. The exit status is 0 only when every case is identical.
"""

from __future__ import annotations

import difflib
import itertools
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

FORMATS = ("table", "csv", "json")

#: the pairwise judgments of five dimensions, G1..G5
JUDGMENTS = (
    ("1", "1", "5", "3", "9"),
    ("1", "1", "3", "5", "7"),
    ("1/5", "1/3", "1", "1", "9"),
    ("1/3", "1/5", "1", "1", "7"),
    ("1/9", "1/7", "1/9", "1/7", "1"),
)

#: matrix files that ``eval`` reads in every format: the sample edited to give each
#: reader path of ``load_decision_matrix`` its cases, non-ASCII ids among them, and a
#: plain m = 800 file
MATRIX_VARIANTS = ("comma_id", "fraction", "crlf_bom", "blank_row", "hash_id", "nonascii_id", "m800")

#: inputs that ``eval`` refuses or warns about, each read once in the table format
#: in place of the sample file named before the first underscore: a missing
#: matrix, one not UTF-8, one with two constant columns, one with an id past csv's
#: field size limit, a directory, and malformed JSON with LF and CRLF line ends
ERROR_INPUTS = (
    "matrix_missing", "matrix_latin1", "matrix_constant", "matrix_long_id",
    "hierarchy_directory", "hierarchy_lf", "hierarchy_crlf",
)

FLOAT = re.compile(r"-?(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?|-?\d+[eE][-+]?\d+")


def cases() -> dict[str, list[str]]:
    """Case name -> argv after ``python -m sspahp``; ``{name}`` is an input file, ``--out`` a file to compare."""
    data = ["--matrix", "{matrix}", "--hierarchy", "{hierarchy}"]
    commands = {
        "weights-critic": ["weights", "--method", "critic", *data],
        "weights-ahp": ["weights", "--method", "ahp", "--pairwise", "{judgments}", "--hierarchy", "{hierarchy}"],
        "eval": ["eval", *data, "--weights-method", "critic"],
        "benchmarks": ["benchmarks", *data, "--weights-method", "critic"],
        "sweep": ["sweep", *data, "--weights-method", "critic"],
        "corr": ["corr", "{rank_a}", "{rank_b}"],
    }
    for variant in MATRIX_VARIANTS:
        commands[f"eval {variant}"] = ["eval", "--matrix", f"{{matrix_{variant}}}", *data[2:], "--weights-method", "critic"]
    out = {}
    for name, argv in commands.items():
        for fmt in FORMATS:
            out[f"{name} {fmt}"] = [*argv, "--format", fmt, *(["--out", f"out.{fmt}"] if fmt != "table" else [])]
    for fmt in ("table", "json"):  # --corr has no csv form
        out[f"benchmarks --corr {fmt}"] = [*commands["benchmarks"], "--corr", "--format", fmt]
    for s in ("0", "0.5", "1"):
        for groups in ([], ["--groups", "G1,G4"]):
            for fmt in FORMATS:
                out[" ".join(["eval --s", s, *groups, fmt])] = [*commands["eval"], "--s", s, *groups, "--format", fmt]
    for option in (["--groups", "G2,G4"], ["--step", "0.25"]):  # one caller-given subset; a default sweep on 5 points
        for fmt in FORMATS:
            out[" ".join(["sweep", *option, fmt])] = [*commands["sweep"], *option, "--format", fmt]
    for s in ("1.5", "nan"):
        out[f"eval --s {s} (refused)"] = [*commands["eval"], "--s", s]
    for name in ERROR_INPUTS:
        replaced = "{" + name.partition("_")[0] + "}"
        out[f"eval {name}"] = [f"{{{name}}}" if token == replaced else token for token in commands["eval"]]
    return out


def matrix_variants(header: str, rows: list[list[str]]) -> dict[str, str]:
    """The text of each of ``MATRIX_VARIANTS``, from the sample's header line and cells."""
    def text(rows, end="\n"):
        return "".join(line + end for line in [header, *map(",".join, rows)])

    first = rows[0]
    countries = ("Česko", "Österreich", "Ísland", "România")
    rng = random.Random(800)
    return {
        "comma_id": text([['"A,01"', *first[1:]], *rows[1:]]),
        "fraction": text([[first[0], "1/4", *first[2:]], *rows[1:]]),
        "crlf_bom": "\ufeff" + text(rows, "\r\n"),
        "blank_row": text([*rows[:2], [], *rows[2:]]),
        "hash_id": text([["#A01", *first[1:]], *rows[1:]]),
        "nonascii_id": text([[f"{country} {row[0]}", *row[1:]] for country, row in zip(itertools.cycle(countries), rows)]),
        "m800": text([[f"A{i:03d}", *(repr(rng.uniform(1.0, 100.0)) for _ in first[1:])] for i in range(1, 801)]),
    }


def error_files(header: str, rows: list[list[str]]) -> dict[str, bytes]:
    """The bytes of each file of ``ERROR_INPUTS`` that is written, from the sample's header line and cells."""
    def text(rows):
        return "".join(line + "\n" for line in [header, *map(",".join, rows)])

    first = rows[0]
    malformed = '{"dimensions": [\n  {"id": "G1",,\n]}\n'
    return {
        "matrix_latin1": text([["Aé01", *first[1:]], *rows[1:]]).encode("latin-1"),
        "matrix_constant": text([[row[0], "7", row[2], "7", *row[4:]] for row in rows]).encode(),
        "matrix_long_id": text([["A" * 140_000, *first[1:]], *rows[1:]]).encode(),
        "hierarchy_lf": malformed.encode(),
        "hierarchy_crlf": malformed.replace("\n", "\r\n").encode(),
    }


def write_inputs(parent: Path, folder: Path) -> dict[str, str]:
    """The shared input files, by the names the cases use."""
    data = parent / "src" / "sspahp" / "data"
    paths = {name: folder / f"sample_{name}.{ext}" for name, ext in (("matrix", "csv"), ("hierarchy", "json"))}
    for name, path in paths.items():
        shutil.copyfile(data / path.name, path)
    paths["judgments"] = folder / "judgments.csv"
    paths["judgments"].write_text("G1,G2,G3,G4,G5\n" + "".join(",".join(row) + "\n" for row in JUDGMENTS))
    header, *lines = paths["matrix"].read_text().splitlines()
    rows = [line.split(",") for line in lines]
    for variant, text in matrix_variants(header, rows).items():
        paths[f"matrix_{variant}"] = folder / f"matrix_{variant}.csv"
        paths[f"matrix_{variant}"].write_bytes(text.encode("utf-8"))
    for name, content in error_files(header, rows).items():
        paths[name] = folder / (f"{name}.json" if name.startswith("hierarchy") else f"{name}.csv")
        paths[name].write_bytes(content)
    paths["matrix_missing"] = folder / "matrix_missing.csv"  # never written
    paths["hierarchy_directory"] = folder
    ids = [row[0] for row in rows]
    for name, order in (("rank_a", ids), ("rank_b", ids[1:] + ids[:1])):
        paths[name] = folder / f"{name}.csv"
        paths[name].write_text("alternative,rank\n" + "".join(f"{a},{order.index(a) + 1}\n" for a in ids))
    return {name: str(path) for name, path in paths.items()}


def run(tree: Path, argv: list[str], cwd: Path) -> dict[str, str]:
    """Stdout, stderr, exit code and ``--out`` file of one case run from ``tree``."""
    for stale in cwd.iterdir():
        stale.unlink()
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "sspahp", *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )
    result = {"stdout": done.stdout, "stderr": done.stderr, "exit code": str(done.returncode)}
    if "--out" in argv:
        out = cwd / argv[argv.index("--out") + 1]
        result["--out file"] = out.read_text() if out.exists() else "(not written)"
    return result


def only_float_digits(a: str, b: str) -> bool:
    """Whether ``a`` and ``b`` differ only in float literals that lie within 1e-12 of each other."""
    if FLOAT.sub("#", a) != FLOAT.sub("#", b):
        return False
    return all(abs(float(x) - float(y)) <= 1e-12 for x, y in zip(FLOAT.findall(a), FLOAT.findall(b)))


def first_diff(name: str, part: str, a: str, b: str) -> str:
    lines = difflib.unified_diff(a.splitlines(), b.splitlines(), "parent", "change", n=1, lineterm="")
    return f"{name}: {part}\n" + "\n".join(list(lines)[:12])


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    parent, change = (Path(tree).resolve() for tree in argv)
    kinds = {"identical": 0, "utility digits": 0, "other": 0}
    shown = {}
    with tempfile.TemporaryDirectory(prefix="cli_diff_") as work:
        work = Path(work)
        for folder in ("inputs", "parent", "change"):
            (work / folder).mkdir()
        inputs = write_inputs(parent, work / "inputs")
        for name, template in cases().items():
            argv = [token.format(**inputs) for token in template]
            a, b = run(parent, argv, work / "parent"), run(change, argv, work / "change")
            parts = [part for part in a if a[part] != b[part]]
            kind = "identical"
            if parts:
                kind = "utility digits" if all(only_float_digits(a[p], b[p]) for p in parts) else "other"
                shown.setdefault(kind, first_diff(name, parts[0], a[parts[0]], b[parts[0]]))
            kinds[kind] += 1
    print(f"{sum(kinds.values())} cases: " + ", ".join(f"{n} {kind}" for kind, n in kinds.items()))
    for kind, diff in shown.items():
        print(f"\nfirst case that differs ({kind}):\n{diff}")
    return 0 if kinds["identical"] == sum(kinds.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
