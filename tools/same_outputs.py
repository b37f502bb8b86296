"""Check that the working tree produces byte-identical outputs to a git revision.

Usage: python3 tools/same_outputs.py <rev>

Unpacks <rev> with `git archive` into a temporary directory and runs the same
protocol under that tree and under the working tree (each imported through
PYTHONPATH, each in a fresh output directory):

- `ropekit corpus` of 200,000 bytes at seeds 0 and 7, and of the
  2,621,440 bytes (seed 0) that acceptance criterion 7 trains on;
- `ropekit compare` of rope, pi, yarn, codellama, randompos and ode with
  steps 40, t_train 4, t_fixed 4 and eval_lens [128, 256, 512, 1100], once in
  float32 and once in float64;
- `ropekit eval` of each compare's ode checkpoint at [128, 1100, 1100], so
  that a length past the cache is looked up twice in one session;
- `ropekit compare` in float32 with explicit labels: `pi_t2` trains pi at
  t_fixed 2, and `ode_reused` evaluates the float32 ode checkpoint, first
  copied to a fixed relative path so that config.json records the same
  string under both trees;
- `ropekit basis -d 16 --methods identity,pi,yarn,codellama,ode --t 1,2.5,8`,
  the same factors for `ode` with the copied float32 ode checkpoint's
  trained weights (`--checkpoint`), and
  `ropekit basis -d 64 --methods identity,pi,yarn,codellama --t 1,1.5,4,16`;
- a fixed list of bad-input commands (BAD_INPUT), each of which must exit 2,
  or 3 for a checkpoint that does not match its config: a missing corpus, an
  unknown key, a wrongly typed key, a bad compare label, a checkpoint with a
  tensor missing, `basis --t x`, `corpus --seed -1` and an output root that
  is a file. All paths are relative to the output directory, so each
  command's exit code and stderr are kept and compared as a file.

It then compares the sha256 of every file, each command's stdout included,
with the timestamps of run-directory names normalised and `meta.commit` in
every report.json set to one fixed string: ropekit records the commit of the
checkout it is imported from, which differs between the two trees (and is
"unknown" for the unpacked one). It prints the number of identical files
and exits 0, or names each file that differs or exists on one side only and
exits 1. Takes a few minutes on two cores.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
METHODS = ("rope", "pi", "yarn", "codellama", "randompos", "ode")
COMPARE = {"steps": 40, "t_train": 4.0, "t_fixed": 4.0, "eval_lens": [128, 256, 512, 1100]}
STAMP = re.compile(r"\d{8}-\d{6}-")
COMMIT = re.compile(rb'"commit": "[^"]*"')
BAD_CONFIGS = {
    "missing-corpus": {"corpus": "absent.txt"},
    "unknown-key": {"corpus": "corpus.txt", "corpsu": 1},
    "typed-key": {"corpus": "corpus.txt", "steps": 2.5},
    "compare-label": {"corpus": "corpus.txt", "runs": [{"label": "a/b"}]},
}
BAD_INPUT = {
    "missing-corpus": ["train", "-c", "bad-missing-corpus.json", "-o", "bad-runs"],
    "unknown-key": ["train", "-c", "bad-unknown-key.json", "-o", "bad-runs"],
    "typed-key": ["train", "-c", "bad-typed-key.json", "-o", "bad-runs"],
    "compare-label": ["compare", "-c", "bad-compare-label.json", "-o", "bad-runs"],
    "checkpoint-mismatch": ["eval", "-c", "eval-float32.json", "--checkpoint", "bad-checkpoint",
                            "-o", "bad-runs"],
    "basis-t": ["basis", "-d", "8", "--t", "x"],
    "corpus-seed": ["corpus", "-o", "bad-corpus.txt", "--seed", "-1"],
    "out-root-is-a-file": ["train", "-c", "eval-float32.json", "-o", "corpus.txt"],
}


def unpack(rev: str, dest: Path) -> None:
    blob = subprocess.run(["git", "archive", "--format=tar", rev], cwd=REPO,
                          capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest)


def run_protocol(tree: Path, out: Path) -> None:
    """Every command of the protocol with tree/src first on the import path,
    writing into out, which is also the cwd."""
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.pop("ROPEKIT_OUT", None)

    def run(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", "ropekit", *args], cwd=out, env=env,
                              capture_output=True, text=True)

    def ropekit(name: str, *args: str) -> None:
        done = run(*args)
        if done.returncode != 0:
            raise SystemExit(f"{tree}: ropekit {' '.join(args)} exited {done.returncode}:\n{done.stderr}")
        (out / f"{name}.stdout").write_text(done.stdout)

    found = subprocess.run([sys.executable, "-c", "import ropekit; print(ropekit.__file__)"],
                           cwd=out, env=env, capture_output=True, text=True, check=True).stdout
    if not Path(found.strip()).is_relative_to(tree / "src"):
        raise SystemExit(f"ropekit imported from {found.strip()}, not from {tree / 'src'}")

    ropekit("corpus", "corpus", "-o", "corpus.txt", "--bytes", "200000")
    ropekit("corpus-seed7", "corpus", "-o", "corpus-seed7.txt", "--bytes", "200000", "--seed", "7")
    ropekit("corpus-criterion7", "corpus", "-o", "corpus-criterion7.txt", "--bytes", "2621440")
    for precision in ("float32", "float64"):
        runs = out / precision
        doc = {"corpus": "corpus.txt", "precision": precision, **COMPARE}
        (out / f"compare-{precision}.json").write_text(
            json.dumps({**doc, "runs": [{"method": m} for m in METHODS]}))
        ropekit(f"compare-{precision}", "compare", "-c", f"compare-{precision}.json", "-o", precision)
        (checkpoint,) = runs.glob("*-compare-*/ode/checkpoint")
        (out / f"eval-{precision}.json").write_text(
            json.dumps({**doc, "method": "ode", "eval_lens": [128, 1100, 1100]}))
        ropekit(f"eval-{precision}", "eval", "-c", f"eval-{precision}.json", "-o", precision,
                "--checkpoint", str(checkpoint.relative_to(out)))
        if precision == "float32":
            shutil.copytree(checkpoint, out / "ode-float32-checkpoint")
            runs_doc = [{"label": "pi_t2", "method": "pi", "t_fixed": 2.0},
                        {"label": "ode_reused", "method": "ode", "checkpoint": "ode-float32-checkpoint"}]
            (out / "compare-labelled.json").write_text(json.dumps({**doc, "runs": runs_doc}))
            ropekit("compare-labelled", "compare", "-c", "compare-labelled.json", "-o", "labelled")
    ropekit("basis", "basis", "-d", "16", "--methods", "identity,pi,yarn,codellama,ode",
            "--t", "1,2.5,8")
    ropekit("basis-checkpoint", "basis", "-d", "16", "--methods", "ode", "--t", "1,2.5,8",
            "--checkpoint", "ode-float32-checkpoint")
    ropekit("basis-d64", "basis", "-d", "64", "--methods", "identity,pi,yarn,codellama",
            "--t", "1,1.5,4,16")

    for name, doc in BAD_CONFIGS.items():
        (out / f"bad-{name}.json").write_text(json.dumps(doc))
    shutil.copytree(out / "ode-float32-checkpoint", out / "bad-checkpoint")
    manifest = out / "bad-checkpoint" / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["tensors"] = [entry for entry in doc["tensors"] if entry["name"] != "layers.0.wq"]
    manifest.write_text(json.dumps(doc))
    for name, args in BAD_INPUT.items():
        done = run(*args)
        if done.returncode not in (2, 3):
            raise SystemExit(f"{tree}: ropekit {' '.join(args)} exited {done.returncode}, "
                             f"not 2 or 3:\n{done.stderr}")
        (out / f"bad-{name}.stderr").write_text(f"exit {done.returncode}\n{done.stderr}")


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "report.json":
        data = COMMIT.sub(b'"commit": "COMMIT"', data)
    return hashlib.sha256(data).hexdigest()


def digests(out: Path) -> dict[str, str]:
    return {
        STAMP.sub("RUN-", str(path.relative_to(out))): digest(path)
        for path in sorted(out.rglob("*")) if path.is_file()
    }


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        tmp = Path(tmp)
        unpack(argv[0], tmp / "base")
        run_protocol(tmp / "base", tmp / "out-base")
        run_protocol(REPO, tmp / "out-work")
        base, work = digests(tmp / "out-base"), digests(tmp / "out-work")
    differ = sorted(name for name in base.keys() | work.keys() if base.get(name) != work.get(name))
    for name in differ:
        side = " (only in the working tree)" if name not in base else (
            f" (only in {argv[0]})" if name not in work else "")
        print(f"differs: {name}{side}")
    same = len(base.keys() | work.keys()) - len(differ)
    print(f"{same} files identical, {len(differ)} differ ({argv[0]} vs the working tree)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
