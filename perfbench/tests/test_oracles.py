from oracles import EtreeDocument, match_twig, triangle_join, typed_value


def test_triangle_join_by_hand():
    r = [(1, 2), (1, 3), (4, 2)]
    s = [(2, 5), (3, 5), (2, 6)]
    t = [(1, 5), (4, 6), (4, 5)]
    # a=1: b=2 -> c in {5, 6}, (1,5) in T; b=3 -> c=5, (1,5) in T.
    # a=4: b=2 -> c in {5, 6}, both (4,5) and (4,6) in T.
    assert triangle_join(r, s, t) == {(1, 2, 5), (1, 3, 5), (4, 2, 5),
                                      (4, 2, 6)}
    assert triangle_join(r, [], t) == set()


def test_typed_value():
    assert typed_value(" 42 ") == 42
    assert typed_value("2.5") == 2.5
    assert typed_value("isbn-1") == "isbn-1"
    assert typed_value("  ") is None
    assert typed_value(None) is None


DOCUMENT = """<site>
  <auction><bidder><ref>3</ref><inc>30</inc></bidder>
           <bidder><ref>12</ref><inc>40</inc></bidder>
           <ref>7</ref></auction>
  <auction>x<note><bidder><ref>5</ref><inc>10</inc></bidder></note>y</auction>
</site>"""


def twig(text):
    from repro.xml.twig_parser import parse_twig

    return parse_twig(text)


def test_etree_twig_child_axis():
    document = EtreeDocument(DOCUMENT)
    # Only the first auction's own <ref> child; its mixed text is empty.
    assert match_twig(document, twig("a=auction(/r=ref)")) == {(None, 7)}


def test_etree_twig_descendant_axis_and_mixed_text():
    document = EtreeDocument(DOCUMENT)
    answer = match_twig(document, twig("a=auction(//r=ref)"))
    # The second auction's own text is "x" + "y" (text plus child tail).
    assert answer == {(None, 3), (None, 12), (None, 7), ("xy", 5)}


def test_etree_twig_branching_with_predicates():
    from repro.xml.twig import TwigNode, TwigQuery

    root = TwigNode("a", tag="auction")
    bidder = root.descendant("b", tag="bidder")
    bidder.child("i", tag="inc", predicate=lambda v: v > 25)
    bidder.child("r", tag="ref", predicate=lambda v: v < 10)
    document = EtreeDocument(DOCUMENT)
    assert match_twig(document, TwigQuery(root)) == {(None, None, 30, 3)}
