#!/usr/bin/env python3
"""Run a fixed CLI sequence into OUT_DIR and fingerprint what it writes, so
that the outputs of two checkouts can be compared with ``diff``:

    python3 scripts/output_digest.py /tmp/a > a.txt
    (in the other checkout) python3 scripts/output_digest.py /tmp/b > b.txt
    diff a.txt b.txt

The sequence is: ``gen-data`` twice (the second corpus sings the same scores
with deeper vibrato, so its features align frame for frame with the
first's), ``train`` on one CPU, ``train`` on every CPU, a 3-step ``train``
resumed for 3 more, ``synth`` of one score, ``synth`` of a long score (that
score's notes sung 8 times, long enough for threaded attention) on every
CPU and on one, and ``eval`` over the manifest and in ``--pair`` mode. The
two long ``synth`` files must have the same hash: after the report the
script exits 1, naming both, if they do not. The report gives each
command's exit code and stdout, with OUT_DIR replaced by ``<OUT>``, then one
``sha256  path`` line per file under OUT_DIR, sorted by path relative to
it. OUT_DIR must be empty or not exist. The commands run without the BLAS
thread variables of the calling shell.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SONGS = 6
SEED = 3
STEPS = 6
# times the long score repeats the first song's notes: 1,733 frames with the
# 6-step checkpoint, enough attention blocks for two or more threads
LONG_REPEATS = 8
# Left out of each command's environment, so that the report shows the BLAS
# thread setting the package makes itself and not the calling shell's.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# synth of the long score on every CPU and on one, which must be equal
LONG_SYNTH_FILES = ("long_song_synth.feat", "long_song_synth_one_cpu.feat")

# Each command runs in a fresh interpreter that puts this checkout's src
# first on sys.path, restricts itself to the CPUs in argv[2] (a comma list,
# or empty for no restriction) and runs the singsynth command line after it.
CHILD = """
import os, sys
sys.path.insert(0, sys.argv[1])
if sys.argv[2]:
    os.sched_setaffinity(0, {int(cpu) for cpu in sys.argv[2].split(",")})
from singsynth.cli import main
sys.exit(main(sys.argv[3:]))
"""


def run(argv, out: Path, cpus=()) -> list[str]:
    """Run ``singsynth argv`` on ``cpus`` (all if empty); returns the report
    lines: the command, its exit code and its stdout."""
    cpu_list = ",".join(str(cpu) for cpu in sorted(cpus))
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    proc = subprocess.run([sys.executable, "-c", CHILD, str(SRC), cpu_list,
                           *argv], stdout=subprocess.PIPE, text=True, env=env)
    placeholder = lambda text: text.replace(str(out), "<OUT>")
    where = f" (cpus {len(cpus)})" if cpus else ""
    return ([f"$ singsynth {placeholder(' '.join(argv))}{where}",
             f"exit {proc.returncode}"] + placeholder(proc.stdout).splitlines())


def digest(root: Path) -> list[str]:
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  "
            f"{path.relative_to(root).as_posix()}"
            for path in sorted(root.rglob("*")) if path.is_file()]


def long_synth_mismatch(digest_lines: list[str]) -> str | None:
    """Why the ``sha256  path`` lines break the rule that both long synth
    files exist and have the same hash, or None if they keep it."""
    hashes = {path: sha for sha, path in
              (line.split("  ", 1) for line in digest_lines)}
    first, second = (hashes.get(name) for name in LONG_SYNTH_FILES)
    if first is None or first != second:
        return (f"{' and '.join(LONG_SYNTH_FILES)} differ: "
                f"{first or 'missing'} vs {second or 'missing'}")
    return None


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("out_dir")
    args = parser.parse_args()
    out = Path(args.out_dir).resolve()
    if out.exists() and any(out.iterdir()):
        sys.exit(f"{out} is not empty")
    out.mkdir(parents=True, exist_ok=True)

    corpus, manifest = out / "corpus", str(out / "corpus" / "manifest.tsv")
    ckpt = str(out / "train_one_cpu" / "checkpoint.bin")
    song = "song_0000"
    one_cpu = {min(os.sched_getaffinity(0))}

    def train(run_dir, steps, *extra):
        return ["train", "--manifest", manifest, "--steps", str(steps),
                "--seed", str(SEED), "--out", str(out / run_dir), *extra]

    def synth(score, name):
        return ["synth", "--score", str(score), "--checkpoint", ckpt,
                "--out", str(out / f"{name}.feat")]

    lines = run(["gen-data", "--out", str(corpus), "--songs", str(SONGS),
                 "--seed", str(SEED)], out)
    lines += run(["gen-data", "--out", str(out / "corpus_vibrato"),
                  "--songs", "1", "--seed", str(SEED),
                  "--set", "vibrato_depth_log", "0.06"], out)
    lines += run(train("train_one_cpu", STEPS), out, one_cpu)
    lines += run(train("train_all_cpus", STEPS), out)
    lines += run(train("resumed", STEPS // 2), out)
    lines += run(train("resumed", STEPS, "--resume",
                       str(out / "resumed" / "checkpoint.bin")), out)
    lines += run(synth(corpus / "scores" / f"{song}.score", f"{song}_synth"), out)
    tempo, *notes = (corpus / "scores" / f"{song}.score").read_text().splitlines()
    long_score = out / "long_song.score"
    long_score.write_text("\n".join([tempo] + notes * LONG_REPEATS) + "\n")
    lines += run(synth(long_score, "long_song_synth"), out)
    lines += run(synth(long_score, "long_song_synth_one_cpu"), out, one_cpu)
    lines += run(["eval", "--manifest", manifest, "--checkpoint", ckpt,
                  "--split", "all", "--out", str(out / "eval_manifest")], out)
    lines += run(["eval", "--out", str(out / "eval_pair"), "--pair",
                  str(out / "corpus_vibrato" / "features" / f"{song}.feat"),
                  str(corpus / "features" / f"{song}.feat")], out)
    files = digest(out)
    print("\n".join(lines + files))
    problem = long_synth_mismatch(files)
    if problem:
        sys.exit(problem)


if __name__ == "__main__":
    main()
