"""The dict form of a certificate: the reference that ``Certificate.to_json``
is checked against, as ``json.dumps(reference_to_dict(cert), sort_keys=True,
indent=2)``."""

from braidcert.certificates import TOOL_VERSION, Certificate, ContextReport


def reference_context_dict(c: ContextReport) -> dict:
    return {
        "k": c.k,
        "base_m": list(c.base_m),
        "phi_image": c.phi_image,
        "pi_support": list(c.pi_support),
        "rough_bound": c.rough_bound,
        "min_switches": "budget_exceeded" if c.min_switches is None else c.min_switches,
        "feasible_necessary": c.feasible_necessary,
    }


def reference_to_dict(cert: Certificate) -> dict:
    best = cert.best
    return {
        "input_word": cert.input_word,
        "input_kind": cert.input_kind,
        "n": cert.n,
        "budget": cert.budget,
        "images": {str(k): text for k, text in cert.images},
        "contexts": [reference_context_dict(c) for c in cert.contexts],
        "best_bound": best.bound if best else 0,
        "best_context": {"k": best.k, "base_m": list(best.base_m)} if best else None,
        "trisecant_bound": cert.trisecant_bound,
        "quadrisecant_bound": cert.quadrisecant_bound,
        "tool_version": TOOL_VERSION,
    }
