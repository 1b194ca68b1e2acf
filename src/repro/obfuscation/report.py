"""Similarity reports for original/synthetic pairs (§V-E)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.obfuscation.gst import gst_similarity
from repro.obfuscation.tokens import normalize_tokens
from repro.obfuscation.winnowing import fingerprint_similarity

# Moss/JPlag flag pairs above roughly this level; the paper reports both
# tools find *no* similarity between originals and clones.
SUSPICION_THRESHOLD = 0.25


@dataclass
class SimilarityReport:
    """Both tools' scores for one document pair."""

    moss_similarity: float  # winnowing fingerprints, Jaccard
    jplag_similarity: float  # greedy string tiling coverage

    @property
    def flagged(self) -> bool:
        return (
            self.moss_similarity >= SUSPICION_THRESHOLD
            or self.jplag_similarity >= SUSPICION_THRESHOLD
        )


def compare_tokens(tokens_a: list[str], tokens_b: list[str]) -> SimilarityReport:
    """Run both detectors on two normalized token streams."""
    return SimilarityReport(
        moss_similarity=fingerprint_similarity(tokens_a, tokens_b),
        jplag_similarity=gst_similarity(tokens_a, tokens_b),
    )


def compare_sources(original: str, synthetic: str) -> SimilarityReport:
    """Run both detectors on a source pair."""
    return compare_tokens(normalize_tokens(original), normalize_tokens(synthetic))


def similarity_row(original: str, synthetic: str) -> dict:
    """The §V-E row for one (original, clone) pair: both detectors on
    the pair, plus Moss on (original, original) — the sanity check that
    the tool fires on a copy.  Each source is lexed once, and only the
    pair is tiled."""
    tokens = normalize_tokens(original)
    report = compare_tokens(tokens, normalize_tokens(synthetic))
    return {
        "moss": report.moss_similarity,
        "jplag": report.jplag_similarity,
        "flagged": report.flagged,
        "self_moss": fingerprint_similarity(tokens, tokens),
    }
