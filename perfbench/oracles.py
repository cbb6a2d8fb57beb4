"""Answers computed apart from the engine, for the correctness checks.

Each oracle is deliberately naive and shares no code with the join
engine or the twig matchers: a dict-indexed triangle join and a
brute-force twig evaluator over ``xml.etree.ElementTree``.
"""

from __future__ import annotations

import xml.etree.ElementTree as ElementTree
from collections import defaultdict
from collections.abc import Iterable


def triangle_join(r: Iterable[tuple], s: Iterable[tuple],
                  t: Iterable[tuple]) -> set[tuple]:
    """All (a, b, c) with (a, b) in R, (b, c) in S and (a, c) in T."""
    s_by_b: dict = defaultdict(set)
    for b, c in s:
        s_by_b[b].add(c)
    t_set = set(t)
    return {(a, b, c)
            for a, b in set(r)
            for c in s_by_b.get(b, ())
            if (a, c) in t_set}


def typed_value(text: str | None):
    """Stripped text revived as int, then float, else str; None if empty."""
    stripped = (text or "").strip()
    if not stripped:
        return None
    for kind in (int, float):
        try:
            return kind(stripped)
        except ValueError:
            pass
    return stripped


class EtreeDocument:
    """An ElementTree parse with parent links and each element's own
    text (its text plus its children's tails, as mixed content reads)."""

    def __init__(self, text: str):
        self.root = ElementTree.fromstring(text)
        self.value: dict[int, object] = {}
        self.by_tag: dict[str, list] = defaultdict(list)
        for element in self.root.iter():
            own = (element.text or "") + "".join(
                child.tail or "" for child in element)
            self.value[id(element)] = typed_value(own)
            self.by_tag[element.tag].append(element)


def match_twig(document: EtreeDocument, twig) -> set[tuple]:
    """Value tuples of every embedding of *twig* (a ``TwigQuery``),
    found by trying each candidate element for each query node."""
    order = twig.nodes()  # pre-order: a parent precedes its children
    attributes = twig.attributes
    out: set[tuple] = set()
    binding: dict[str, object] = {}

    def candidates(query_node):
        if query_node.parent is None:
            return document.by_tag.get(query_node.tag, ())
        anchor = binding[query_node.parent.name]
        pool = anchor if query_node.axis.name == "CHILD" \
            else anchor.iter()
        return [element for element in pool
                if element is not anchor and element.tag == query_node.tag]

    def extend(index: int) -> None:
        if index == len(order):
            out.add(tuple(document.value[id(binding[name])]
                          for name in attributes))
            return
        query_node = order[index]
        for element in candidates(query_node):
            value = document.value[id(element)]
            if query_node.predicate is not None \
                    and not query_node.predicate(value):
                continue
            binding[query_node.name] = element
            extend(index + 1)
            del binding[query_node.name]

    extend(0)
    return out
