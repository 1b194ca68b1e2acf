"""Moss-style winnowing fingerprints (Schleimer et al., SIGMOD 2003).

1. Normalize the token stream (:mod:`repro.obfuscation.tokens`).
2. Hash every k-gram of tokens with a stable 64-bit digest (never the
   builtin ``hash``, which ``PYTHONHASHSEED`` salts per process), so a
   fingerprint set — and every score — is the same in any process.
3. Slide a window of w hashes; record the minimum of each window
   (rightmost on ties) — the *winnowing* guarantee is that any match of
   length >= w + k - 1 shares at least one fingerprint.
4. Similarity of two documents = Jaccard index of fingerprint sets.
"""

from __future__ import annotations

from hashlib import blake2b

DEFAULT_K = 5
DEFAULT_WINDOW = 4


def _digest(gram: list[str]) -> int:
    # Tokens are class names and operators: never NUL, so the join is
    # unambiguous.
    data = "\0".join(gram).encode()
    return int.from_bytes(blake2b(data, digest_size=8).digest(), "big")


def _kgram_hashes(tokens: list[str], k: int) -> list[int]:
    if len(tokens) < k:
        return [_digest(tokens)] if tokens else []
    return [_digest(tokens[i : i + k]) for i in range(len(tokens) - k + 1)]


def winnow(hashes: list[int], window: int) -> set[int]:
    """Select window-minimum fingerprints from a hash sequence."""
    if not hashes:
        return set()
    if len(hashes) <= window:
        return {min(hashes)}
    selected: set[int] = set()
    previous_index = -1
    for start in range(len(hashes) - window + 1):
        window_slice = hashes[start : start + window]
        minimum = min(window_slice)
        # Rightmost minimal hash in the window (the robust-winnowing rule).
        index = start + max(
            i for i, value in enumerate(window_slice) if value == minimum
        )
        if index != previous_index:
            selected.add(minimum)
            previous_index = index
    return selected


def winnow_fingerprints(
    tokens: list[str], k: int = DEFAULT_K, window: int = DEFAULT_WINDOW
) -> set[int]:
    """Fingerprint a normalized token stream."""
    return winnow(_kgram_hashes(tokens, k), window)


def fingerprint_similarity(
    tokens_a: list[str],
    tokens_b: list[str],
    k: int = DEFAULT_K,
    window: int = DEFAULT_WINDOW,
) -> float:
    """Jaccard similarity of winnowing fingerprints (0..1)."""
    prints_a = winnow_fingerprints(tokens_a, k, window)
    prints_b = winnow_fingerprints(tokens_b, k, window)
    if not prints_a and not prints_b:
        return 1.0
    union = prints_a | prints_b
    if not union:
        return 0.0
    return len(prints_a & prints_b) / len(union)
