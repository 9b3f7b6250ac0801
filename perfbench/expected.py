"""Expected answers, written by hand from the mathematics of each instance.

Nothing here is captured from the code under test.  The benchmark compares
verdict classes and pinned witnesses, never line text, so added detail or a
``VACUOUS`` verdict in place of a vacuous ``PASS`` is not an error.
"""

PASS = "PASS"
FAIL = "FAIL"
SIGMA = "SIGMA_MONOID_COMPATIBLE"
WPA_ONLY = "WPA_ONLY"
POSITIVE = "POSITIVE"
NONPOSITIVE = "NONPOSITIVE"

# The verdicts that satisfy each expected class.
ACCEPTED = {
    PASS: frozenset({PASS, "VACUOUS"}),
    FAIL: frozenset({FAIL}),
    SIGMA: frozenset({SIGMA}),
    WPA_ONLY: frozenset({WPA_ONLY}),
    POSITIVE: frozenset({POSITIVE}),
    NONPOSITIVE: frozenset({NONPOSITIVE}),
}

# Checks `pcmcat laws` runs on every hom carrier, and on a bare carrier.
CARRIER_CHECKS = ("unary", "zero", "wpa", "subfamilies", "reindex")
# Checks it adds for a base that carries composition.
CATEGORY_CHECKS = (
    "strong-distributivity",
    "left-right-distributivity",
    "reordering",
    "composing-sums",
    "monoid-sums",
    "zero-absorption",
)

# base -> (carries composition, full-pa class, positivity class, checks that FAIL)
_LAWS = {
    # Commutative groups under finite summation: every family is summable, so
    # the two-way partition law holds, and x + (-x) = 0 breaks positivity.
    "int": (True, SIGMA, NONPOSITIVE, ()),
    "rational": (True, SIGMA, NONPOSITIVE, ()),
    "mod:4": (True, SIGMA, NONPOSITIVE, ()),  # 1 + 3 = 0 mod 4
    "mod:5": (True, SIGMA, NONPOSITIVE, ()),  # 1 + 4 = 0 mod 5
    "complex": (True, SIGMA, NONPOSITIVE, ()),
    # 2x2 rational matrices: every family sums.  On the family grid
    # 0, I, [[0,0],[1,-1]], [[0,1],[0,1]], [[0,1],[-1,0]] the (1,1) entry is
    # only ever +1 and the (1,2) entry only 0 or +1, so no nonzero member of
    # a family of at most three can cancel.
    "matrix:2": (True, SIGMA, POSITIVE, ()),
    # Partial maps and relations: a sum is a union of graphs.  Pairwise
    # compatibility of blocks and of block sums is compatibility of the
    # whole family, and a union is empty only when every member is.
    "pfn:2": (True, SIGMA, POSITIVE, ()),
    "pfn:3": (True, SIGMA, POSITIVE, ()),
    "pinj-overlap:3": (True, SIGMA, POSITIVE, ()),
    "pinj-disjoint:3": (True, SIGMA, POSITIVE, ()),
    "rel:2": (True, SIGMA, POSITIVE, ()),
    # At most one nonzero entry: summable block sums leave one nonzero block
    # holding one nonzero entry; a zero total then has no nonzero member; and
    # a product of two such families again has at most one nonzero entry.
    "kbounded:1": (True, SIGMA, POSITIVE, ()),
    # The paper's counterexample.  Each hom is a valid carrier, but the
    # product of two summable families (1,1) x (1,1) has four nonzero
    # entries; (1,1,1) is refused while {1,1} | {1} is admitted; 1 + (-1) = 0;
    # and (-1)(-1) = 1 asks three identities to be summable, which they are not.
    "kbounded:2": (True, WPA_ONLY, NONPOSITIVE, ("strong-distributivity", "monoid-sums")),
    # Norm-bounded sums (bare carriers): (1, 1/2, -1/2) is refused while
    # {1} | {1/2, -1/2} is admitted, and 1/2 + (-1/2) = 0.
    "unitball:1:l1": (False, WPA_ONLY, NONPOSITIVE, ()),
    "unitball:2:l2": (False, WPA_ONLY, NONPOSITIVE, ()),
    "unitball:2:linf": (False, WPA_ONLY, NONPOSITIVE, ()),
}

# Pinned witness: the values of the two families the strong-distributivity
# search must report on kbounded:2.
PINNED_WITNESSES = {("kbounded:2", "strong-distributivity"): (("1", "1"), ("1", "1"))}


def laws_verdicts(base: str) -> dict[str, str]:
    """Expected verdict class per check kind of ``pcmcat laws --base <base>``."""
    composes, full_pa, positivity, failing = _LAWS[base]
    verdicts = {kind: PASS for kind in CARRIER_CHECKS}
    verdicts["full-pa"] = full_pa
    verdicts["positivity"] = positivity
    if composes:
        verdicts.update({kind: PASS for kind in CATEGORY_CHECKS})
    verdicts.update({kind: FAIL for kind in failing})
    return verdicts


def laws_exit_code(base: str) -> int:
    """0 when no law fails, 1 when one does."""
    return 1 if _LAWS[base][3] else 0
