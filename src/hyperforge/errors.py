"""Exception hierarchy and the global search-budget knob.

Every error the CLI can surface carries a distinct machine-readable ``code``.
"""
from __future__ import annotations

import math
import os

DEFAULT_BUDGET = 50_000_000


class HyperforgeError(Exception):
    """Base class; ``code`` is the machine-readable error identifier."""

    code = "error"

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = details

    def to_json(self) -> dict:
        return {"error": self.code, "message": str(self), "details": _plain(self.details)}


def _plain(obj):
    """``obj`` as strict JSON values: a non-finite float becomes None, and
    anything that is not a JSON value its repr."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (int, float, str, bool)) or obj is None:
        return obj
    return repr(obj)


class SpaceProductError(HyperforgeError):
    code = "space_product_mismatch"


class SpaceUnknownError(HyperforgeError):
    code = "space_unknown"


class WeightError(HyperforgeError):
    code = "weight_invalid"


class SearchExhausted(HyperforgeError):
    code = "search_exhausted"


class WitnessError(HyperforgeError):
    code = "witness_not_found"


class PropertyBUnavailable(HyperforgeError):
    code = "property_b_unavailable"


class ElementError(HyperforgeError):
    code = "element_invalid"


class ParseError(HyperforgeError):
    code = "parse_error"

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})", pos=pos)
        self.pos = pos


class SemanticError(HyperforgeError):
    code = "semantic_error"


class ConfigError(HyperforgeError):
    code = "config_invalid"


class LeadingFormVanishing(HyperforgeError):
    code = "leading_form_vanishing"


class BundleError(HyperforgeError):
    code = "bundle_invalid"


def search_budget() -> int:
    """Master cap on index scans; HYPERFORGE_BUDGET overrides globally."""
    raw = os.environ.get("HYPERFORGE_BUDGET", "")
    if not raw:
        return DEFAULT_BUDGET
    try:
        val = int(raw)
    except ValueError:
        return DEFAULT_BUDGET
    return max(1024, val)


def small_budget() -> int:
    """Cap for inner loops (tightening, leading-form scans), scaled off the master budget."""
    return max(64, search_budget() // 500_000)
