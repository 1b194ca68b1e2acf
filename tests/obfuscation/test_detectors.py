"""Plagiarism detector tests: winnowing (Moss) and RKR-GST (JPlag)."""

import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.obfuscation.gst import greedy_string_tiling, gst_similarity
from repro.obfuscation.report import compare_sources
from repro.obfuscation.tokens import normalize_tokens
from repro.obfuscation.winnowing import (
    fingerprint_similarity,
    winnow,
    winnow_fingerprints,
)

PROGRAM_A = """
int fib(int n) {
  int a = 0;
  int b = 1;
  int i;
  int sum = 0;
  for (i = 0; i < n; i++) {
    sum = a + b;
    a = b;
    b = sum;
  }
  return sum;
}
int main() { printf("%d", fib(10)); return 0; }
"""

# A renamed copy of PROGRAM_A (classic plagiarism).
PROGRAM_A_RENAMED = """
int fibonacci(int count) {
  int first = 0;
  int second = 1;
  int index;
  int result = 0;
  for (index = 0; index < count; index++) {
    result = first + second;
    first = second;
    second = result;
  }
  return result;
}
int main() { printf("%d", fibonacci(10)); return 0; }
"""

PROGRAM_B = """
unsigned table[256];
float history[32];

unsigned crc_round(unsigned x) {
  int k;
  for (k = 0; k < 8; k++) {
    if (x & 1u) { x = 3988292384u ^ (x >> 1); } else { x = x >> 1; }
  }
  return x;
}

void build(void) {
  unsigned n;
  for (n = 0u; n < 256u; n++) {
    table[n] = crc_round(n);
  }
}

float smooth(float alpha) {
  float acc = 0.0;
  int i;
  for (i = 1; i < 32; i++) {
    history[i] = history[i - 1] * alpha + (float)(int)table[i & 255];
    acc = acc + history[i] / 3.5;
  }
  return acc;
}

int main() {
  build();
  float s = smooth(0.75);
  unsigned mixed = table[10] ^ table[200];
  while (mixed > 255u) { mixed = mixed >> 3; }
  printf("%u %.3f %u", table[255], s, mixed);
  return 0;
}
"""


class TestTokenNormalization:
    def test_identifiers_collapse(self):
        tokens_a = normalize_tokens("int foo = 3;")
        tokens_b = normalize_tokens("int bar = 99;")
        assert tokens_a == tokens_b

    def test_structure_preserved(self):
        tokens = normalize_tokens("if (a < b) { a = b; }")
        assert "if" in tokens
        assert "ID" in tokens
        assert "{" in tokens


class TestWinnowing:
    def test_identical_documents_similarity_one(self):
        tokens = normalize_tokens(PROGRAM_A)
        assert fingerprint_similarity(tokens, tokens) == 1.0

    def test_renamed_copy_detected(self):
        a = normalize_tokens(PROGRAM_A)
        b = normalize_tokens(PROGRAM_A_RENAMED)
        assert fingerprint_similarity(a, b) > 0.9

    def test_unrelated_programs_low(self):
        a = normalize_tokens(PROGRAM_A)
        b = normalize_tokens(PROGRAM_B)
        assert fingerprint_similarity(a, b) < 0.25

    def test_winnow_selects_from_every_window(self):
        hashes = [9, 3, 7, 1, 8, 2, 6]
        selected = winnow(hashes, 3)
        # The winnowing guarantee: the minimum of each window is covered.
        for start in range(len(hashes) - 2):
            window = hashes[start : start + 3]
            assert any(h in selected for h in window)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=80))
    def test_winnow_subset_of_hashes(self, hashes):
        assert winnow(hashes, 4) <= set(hashes)

    def test_empty_input(self):
        assert winnow([], 4) == set()
        assert winnow_fingerprints([]) == set()

    def test_similarity_is_independent_of_the_hash_seed(self, tmp_path):
        # A partial copy scores strictly between 0 and 1, so the score
        # depends on which fingerprints winnowing selects — and with
        # salted hashes, on the process's PYTHONHASHSEED.
        (tmp_path / "original.c").write_text(PROGRAM_B)
        (tmp_path / "clone.c").write_text(PROGRAM_A + PROGRAM_B[:400])
        script = (
            "import sys\n"
            "from pathlib import Path\n"
            "from repro.obfuscation import normalize_tokens\n"
            "from repro.obfuscation import fingerprint_similarity\n"
            "a, b = (normalize_tokens(Path(p).read_text())"
            " for p in sys.argv[1:])\n"
            "print(repr(fingerprint_similarity(a, b)))\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        scores = set()
        for seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-c", script, str(tmp_path / "original.c"),
                 str(tmp_path / "clone.c")],
                env=env, capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0, proc.stderr
            scores.add(proc.stdout)
        (score,) = scores
        assert 0.0 < float(score) < 1.0


class TestGST:
    def test_identical_similarity_one(self):
        tokens = normalize_tokens(PROGRAM_A)
        assert gst_similarity(tokens, tokens) == 1.0

    def test_renamed_copy_detected(self):
        a = normalize_tokens(PROGRAM_A)
        b = normalize_tokens(PROGRAM_A_RENAMED)
        assert gst_similarity(a, b) > 0.9

    def test_unrelated_low(self):
        a = normalize_tokens(PROGRAM_A)
        b = normalize_tokens(PROGRAM_B)
        assert gst_similarity(a, b) < 0.3

    def test_tiles_never_overlap(self):
        a = normalize_tokens(PROGRAM_A)
        b = normalize_tokens(PROGRAM_A_RENAMED)
        tiles = greedy_string_tiling(a, b)
        used_a: set[int] = set()
        used_b: set[int] = set()
        for tile in tiles:
            for k in range(tile.length):
                assert tile.start_a + k not in used_a
                assert tile.start_b + k not in used_b
                used_a.add(tile.start_a + k)
                used_b.add(tile.start_b + k)

    def test_min_match_respected(self):
        a = normalize_tokens(PROGRAM_A)
        b = normalize_tokens(PROGRAM_B)
        for tile in greedy_string_tiling(a, b, min_match=8):
            assert tile.length >= 8

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.sampled_from(["ID", "LIT", "+", ";", "if"]), max_size=60),
        st.lists(st.sampled_from(["ID", "LIT", "+", ";", "if"]), max_size=60),
    )
    def test_similarity_bounded_and_symmetricish(self, a, b):
        forward = gst_similarity(a, b)
        assert 0.0 <= forward <= 1.0

    def test_large_identical_documents_fast(self):
        """The RKR variant must not choke on long literal runs."""
        tokens = ["LIT", ","] * 6000
        assert gst_similarity(tokens, list(tokens)) == 1.0


class TestReport:
    def test_self_comparison_flagged(self):
        report = compare_sources(PROGRAM_A, PROGRAM_A)
        assert report.flagged
        assert report.moss_similarity == 1.0

    def test_unrelated_clean(self):
        report = compare_sources(PROGRAM_A, PROGRAM_B)
        assert not report.flagged
