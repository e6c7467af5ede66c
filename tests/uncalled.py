"""List the functions of ``bgprel`` that no subcommand calls.

    PYTHONPATH=src python3 tests/uncalled.py

Runs every subcommand in-process on a 1x synth bundle, with ``--alloc``,
``--pairs``, ``--blocks 2x2`` and ``--clique``, plus a one-point
``sweep --ablate cnr``, which does not fork.  A ``sys.setprofile`` hook
records every package function that starts; the script prints the
definitions it never saw.  The list also names code that runs only in a
forked worker, on a refusal, or without one of those flags, so it is a
report to read, not a test.
"""

import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

import bgprel
from bgprel import cli

SRC = Path(bgprel.__file__).parent


def main() -> None:
    ran = set()

    def hook(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(str(SRC)):
            ran.add((Path(code.co_filename).name, code.co_firstlineno))

    # the commands' own output is not the report
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        work = Path(tmp)
        data, out = work / "data", work / "out"
        alloc, clique, pairs = work / "alloc.txt", work / "clique.txt", work / "pairs.txt"
        sys.setprofile(hook)
        assert cli.run(["synth", "--perturbation", "0.03", "--seed", "1",
                        "--out", str(data)]) == 0
        sys.setprofile(None)
        alloc.write_text("1-4000000\n")
        clique.write_text("".join(f"{a}\n" for a in range(1, 9)))  # the 8 tier-1 ASNs
        truth = (data / "truth.csv").read_text().splitlines()[1:40]
        pairs.write_text("".join("{}|{}\n".format(*line.split(",")[:2]) for line in truth))
        flags = ["--data", str(data), "--alloc", str(alloc), "--clique", str(clique)]
        checkpoint = out / "train" / "checkpoint.json"
        runs = [
            ["ingest", "--paths", str(data / "paths.txt"), "--alloc", str(alloc),
             "--out", str(out / "ingest")],
            ["features", *flags, "--out", str(out / "features")],
            ["dataset", *flags, "--out", str(out / "dataset")],
            ["train", *flags, "--blocks", "2x2", "--epochs", "20", "--out", str(out / "train")],
            ["predict", *flags, "--checkpoint", str(checkpoint), "--pairs", str(pairs),
             "--out", str(out / "predict")],
            ["sweep", *flags, "--ablate", "cnr", "--epochs", "5", "--out", str(out / "sweep")],
        ]
        sys.setprofile(hook)
        for argv in runs:
            assert cli.run(argv) == 0, argv
        sys.setprofile(None)

    never = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                starts = {node.lineno, *(d.lineno for d in node.decorator_list)}
                if not any((path.name, line) in ran for line in starts):
                    never.append(f"{path.name}:{node.lineno} {node.name}")
    print(f"{len(ran)} package functions ran; never called:", *never, sep="\n")


if __name__ == "__main__":
    main()
