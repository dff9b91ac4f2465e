"""The rule scripts/output_digest.py checks on its report: both long synth
files exist and have the same hash."""

import importlib.util
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "output_digest",
    Path(__file__).resolve().parent.parent / "scripts" / "output_digest.py")
output_digest = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(output_digest)

LONG, LONG_ONE_CPU = output_digest.LONG_SYNTH_FILES


def test_digest_lines_with_equal_long_synth_hashes_keep_the_rule():
    lines = [f"{'a' * 64}  corpus/manifest.tsv", f"{'b' * 64}  {LONG}",
             f"{'b' * 64}  {LONG_ONE_CPU}", f"{'c' * 64}  eval_pair/gv.tsv"]
    assert output_digest.long_synth_mismatch(lines) is None


@pytest.mark.parametrize("lines", [
    [f"{'b' * 64}  {LONG}", f"{'d' * 64}  {LONG_ONE_CPU}"],
    [f"{'b' * 64}  {LONG}"],
    [f"{'b' * 64}  {LONG_ONE_CPU}"],
    [f"{'b' * 64}  corpus/{LONG}", f"{'b' * 64}  {LONG_ONE_CPU}"],
    [],
])
def test_digest_lines_with_differing_or_missing_long_synth_files_name_both(lines):
    problem = output_digest.long_synth_mismatch(lines)
    assert problem is not None
    assert LONG in problem and LONG_ONE_CPU in problem


def test_digest_line_paths_may_hold_single_spaces():
    lines = [f"{'b' * 64}  {LONG}", f"{'b' * 64}  {LONG_ONE_CPU}",
             f"{'e' * 64}  a b.feat"]
    assert output_digest.long_synth_mismatch(lines) is None
