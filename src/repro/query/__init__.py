"""Query model: twig patterns, the XPath-subset parser, and the oracle matcher.

Implements Section 2 of the paper: query twig patterns, subpaths and
PCsubpaths, and the FreeIndex / BoundIndex problems' query-side inputs.
"""

from .ast import Axis, TwigNode
from .match import NaiveMatcher
from .parser import normalize_xpath, parse_xpath
from .twig import PathQuery, TwigPattern, TwigShape

__all__ = [
    "Axis",
    "NaiveMatcher",
    "PathQuery",
    "TwigPattern",
    "TwigNode",
    "TwigShape",
    "normalize_xpath",
    "parse_xpath",
]
