"""Machine-checkable certificates for braid lower bounds.

A certificate records, for one input word, the reduced parity images and the
bounds they imply, per (k, base) context, plus the best bound with its
witnessing context.  Serialisation is deterministic (sorted keys, stable
orderings, no timing), so identical inputs produce identical bytes.

Certificate.to_json writes the JSON straight from the certificate's fixed
shape and reproduces json.dumps(..., sort_keys=True, indent=2) of it byte for
byte, at a fraction of the cost of that call's pure-Python indenting encoder.
Strings go through encode_basestring_ascii, the escaper json.dumps uses by
default; the tests hold the dict form as the reference the writer is checked
against.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _string
from pathlib import Path
from typing import Iterable

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

    def _json(self) -> str:
        """This context as an element of the certificate's contexts array,
        from its opening brace on."""
        exact = '"budget_exceeded"' if self.min_switches is None else self.min_switches
        return (f'{{\n      "base_m": {_array(map(str, self.base_m), "      ")},\n'
                f'      "feasible_necessary": {"true" if self.feasible_necessary else "false"},\n'
                f'      "k": {self.k},\n'
                f'      "min_switches": {exact},\n'
                f'      "phi_image": {_string(self.phi_image)},\n'
                f'      "pi_support": {_array(map(_string, self.pi_support), "      ")},\n'
                f'      "rough_bound": {self.rough_bound}\n    }}')


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

    def to_json(self) -> str:
        """The certificate as JSON, without a final newline: byte for byte
        json.dumps(d, sort_keys=True, indent=2) of its dict form d, whose keys
        are the ones written here.  ``images`` maps str(k) to the image word,
        ``min_switches`` is "budget_exceeded" when over the budget, and
        ``best_context`` is null and ``best_bound`` 0 when there is no
        context."""
        best = self.best
        if best is None:
            best_context = "null"
        else:
            best_context = (f'{{\n    "base_m": {_array(map(str, best.base_m), "    ")},\n'
                            f'    "k": {best.k}\n  }}')
        images = sorted((str(k), text) for k, text in self.images)
        if images:
            images_json = "{\n" + ",\n".join(
                f"    {_string(k)}: {_string(text)}" for k, text in images) + "\n  }"
        else:
            images_json = "{}"
        return (f'{{\n  "best_bound": {best.bound if best else 0},\n'
                f'  "best_context": {best_context},\n'
                f'  "budget": {self.budget},\n'
                f'  "contexts": {_array((c._json() for c in self.contexts), "  ")},\n'
                f'  "images": {images_json},\n'
                f'  "input_kind": {_string(self.input_kind)},\n'
                f'  "input_word": {_string(self.input_word)},\n'
                f'  "n": {self.n},\n'
                f'  "quadrisecant_bound": {_number(self.quadrisecant_bound)},\n'
                f'  "tool_version": {_string(TOOL_VERSION)},\n'
                f'  "trisecant_bound": {_number(self.trisecant_bound)}\n}}')


def _array(items: Iterable[str], pad: str) -> str:
    """A JSON array of already encoded items as json.dumps(..., indent=2)
    writes it at the indent ``pad``: "[]" when empty, else one item a line,
    each indented two spaces more than ``pad``."""
    items = list(items)
    if not items:
        return "[]"
    inner = pad + "  "
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"


def _number(value: int | None) -> str:
    return "null" if value is None else str(value)


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
