"""Machine-checkable certificates for braid lower bounds.

A certificate records, for one input word, the reduced parity images and the
bounds they imply, per (k, base) context, plus the best bound with its
witnessing context.  Serialisation is deterministic (sorted keys, stable
orderings, no timing), so identical inputs produce identical bytes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

TOOL_VERSION = "0.1.0"


@dataclass(frozen=True)
class ContextReport:
    """Bounds extracted from one (k, base m) parity image."""

    k: int
    base_m: tuple[int, ...]
    phi_image: str
    pi_support: tuple[str, ...]
    rough_bound: int
    min_switches: int | None  # None when more than the budget of switches is needed
    feasible_necessary: bool

    @property
    def bound(self) -> int:
        return self.rough_bound if self.min_switches is None else max(self.min_switches, self.rough_bound)

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "base_m": list(self.base_m),
            "phi_image": self.phi_image,
            "pi_support": list(self.pi_support),
            "rough_bound": self.rough_bound,
            "min_switches": "budget_exceeded" if self.min_switches is None else self.min_switches,
            "feasible_necessary": self.feasible_necessary,
        }


@dataclass(frozen=True)
class Certificate:
    input_word: str
    input_kind: str  # "pb" or "gnk"
    n: int
    budget: int
    contexts: tuple[ContextReport, ...]
    images: tuple[tuple[int, str], ...] = ()  # reduced image word per k
    trisecant_bound: int | None = None
    quadrisecant_bound: int | None = None

    @property
    def best(self) -> ContextReport | None:
        if not self.contexts:
            return None
        return max(self.contexts, key=lambda c: (c.bound, -c.k, tuple(-x for x in c.base_m)))

    def to_dict(self) -> dict:
        best = self.best
        return {
            "input_word": self.input_word,
            "input_kind": self.input_kind,
            "n": self.n,
            "budget": self.budget,
            "images": {str(k): text for k, text in self.images},
            "contexts": [c.to_dict() for c in self.contexts],
            "best_bound": best.bound if best else 0,
            "best_context": {"k": best.k, "base_m": list(best.base_m)} if best else None,
            "trisecant_bound": self.trisecant_bound,
            "quadrisecant_bound": self.quadrisecant_bound,
            "tool_version": TOOL_VERSION,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def input_hash(kind: str, word_text: str, n: int, budget: int) -> str:
    digest = hashlib.sha256(f"{kind}\n{n}\n{budget}\n{word_text}".encode()).hexdigest()
    return digest[:16]


def persist(cert: Certificate, out_dir: str | Path) -> tuple[Path, str]:
    """Write the certificate to one JSON file keyed by the input hash and
    return the path with the JSON text written (without the final newline),
    so callers print the same bytes without serialising again.  Re-runs
    recompute and overwrite with identical bytes."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    name = input_hash(cert.input_kind, cert.input_word, cert.n, cert.budget)
    path = out / f"certificate-{name}.json"
    text = cert.to_json()
    path.write_text(text + "\n")
    return path, text
