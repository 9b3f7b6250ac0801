"""Small-model censuses: every structure of a tiny size, decided by a loop
written here from the definition, against the harness.

- Carriers: every partial table on the non-unit pairs of {0, 1, 2}, with 0
  as the unit (4**4 = 256 tables), summed by folding the table over the
  entries in entry order.  A table is a summation carrier only if that fold
  is the same for every order of every family; the carrier battery must
  pass exactly the tables for which it is.
- Indexes: every unital table on 1, 2 and 3 elements (1 + 2 + 81 tables)
  through ``validate_category``, against ``plain.validate``; and the
  known answer delta_g * delta_h = delta_{g.h} of ``int[M]`` on each monoid
  of order 3, up to isomorphism.
- Indexes of order 4: every monoid on {0, 1, 2, 3} with unit 0, found by a
  backtracking search (156 tables in 35 classes), and each of them with one
  non-unit entry replaced (156 x 9 x 3 tables); ``validate_category`` must
  give the report line and witness of ``plain.validate`` on each.
"""

import collections
import itertools

import plain
from plain import as_index, isomorphic
from pcmcat.category import from_semiring
from pcmcat.cauchy import cauchy_product
from pcmcat.fincat import validate_category
from pcmcat.laws import run_pcm_suite
from pcmcat.pcm import NOT_SUMMABLE, Pcm, Summable

# --------------------------------------------------------------------------
# carriers on {0, 1, 2}
# --------------------------------------------------------------------------

NON_UNIT_PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2))
UNDEFINED = None
BATTERY = ("unary", "zero", "wpa", "subfamilies", "reindex")


def all_partial_tables():
    """Each table maps a non-unit pair to 0, 1 or 2, or leaves it undefined."""
    for values in itertools.product((UNDEFINED, 0, 1, 2), repeat=len(NON_UNIT_PAIRS)):
        yield {pair: v for pair, v in zip(NON_UNIT_PAIRS, values) if v is not UNDEFINED}


def fold(table, values):
    """The table folded over ``values`` in order, 0 the unit; None when refused."""
    total = 0
    for value in values:
        if total == 0:
            total = value
        elif value != 0:
            total = table.get((total, value))
            if total is None:
                return None
    return total


def census_pcm(k, table) -> Pcm:
    def oracle(fam):
        total = fold(table, [value for _, value in fam.entries])
        return NOT_SUMMABLE if total is None else Summable(total)

    return Pcm(name=f"census{k}", contains=lambda x: type(x) is int and 0 <= x <= 2,
               oracle=oracle, sample_elements=(0, 1, 2))


def order_invariant(table) -> bool:
    """The fold gives one answer for every order of every family of at most 4 members."""
    for size in range(5):
        for family in itertools.combinations_with_replacement((0, 1, 2), size):
            if len({fold(table, order) for order in itertools.permutations(family)}) > 1:
                return False
    return True


def test_the_carrier_battery_passes_exactly_the_order_invariant_tables():
    tables = list(all_partial_tables())
    assert len(tables) == 256
    invariant, passed = set(), set()
    for k, table in enumerate(tables):
        if order_invariant(table):
            invariant.add(k)
        reports = run_pcm_suite(census_pcm(k, table))
        if all(r.passed for r in reports if r.name.split("[")[0] in BATTERY):
            passed.add(k)
    assert len(invariant) == 19
    assert passed == invariant, (sorted(passed - invariant), sorted(invariant - passed))


# --------------------------------------------------------------------------
# indexes of order 1 to 3
# --------------------------------------------------------------------------


def unital_tables(n):
    """Every table on the elements 0..n-1 with 0 as a two-sided unit."""
    others = list(itertools.product(range(1, n), repeat=2))
    for values in itertools.product(range(n), repeat=len(others)):
        table = {(a, b): (b if a == 0 else a) for a in range(n) for b in range(n)
                 if a == 0 or b == 0}
        table.update(zip(others, values))
        yield table


def monoids(n):
    return [t for t in unital_tables(n) if plain.validate(as_index(t, n)).passed]


def test_validate_category_agrees_with_the_triple_loop_on_every_unital_table():
    counts, classes = [], []
    for n in (1, 2, 3):
        tables = list(unital_tables(n))
        assert len(tables) == n ** ((n - 1) ** 2)
        for table in tables:
            index = as_index(table, n)
            assert validate_category(index).passed == plain.validate(index).passed, table
        found = monoids(n)
        representatives = []
        for table in found:
            if not any(isomorphic(table, rep, n) for rep in representatives):
                representatives.append(table)
        counts.append(len(found))
        classes.append(len(representatives))
    # the monoids of orders 1, 2, 3: 1, 2 and 7 up to isomorphism
    assert counts == [1, 2, 11] and classes == [1, 2, 7]


def test_deltas_convolve_as_the_index_composes_on_every_monoid_of_order_3():
    """delta_g * delta_h = delta_{g.h} in int[M] for each of the 7 order-3
    monoids.  Two are not commutative, the left-zero and right-zero bands
    with a unit adjoined; on each, delta_{g.h} != delta_{h.g} for some pair,
    so a kernel that swaps the index factors fails there."""
    representatives = []
    for table in monoids(3):
        if not any(isomorphic(table, rep, 3) for rep in representatives):
            representatives.append(table)
    base = from_semiring("int")
    non_commutative = 0
    for table in representatives:
        cc = cauchy_product(base, as_index(table, 3))
        obj = cc.objects[0]
        delta = {a: cc.make_arrow(obj, obj, {f"m{a}": 1}) for a in range(3)}
        for g, h in itertools.product(range(3), repeat=2):
            assert cc.compose(delta[g], delta[h]) == delta[table[g, h]], (table, g, h)
        if any(table[g, h] != table[h, g] for g, h in itertools.product(range(3), repeat=2)):
            non_commutative += 1
            assert {table[1, 2], table[2, 1]} == {1, 2}  # x.y = x for all x, y != 0, or = y
    assert non_commutative == 2


# --------------------------------------------------------------------------
# indexes of order 4: every monoid, and each with one entry replaced
# --------------------------------------------------------------------------


def test_validate_category_agrees_with_the_triple_loop_on_every_order_4_monoid_and_its_neighbours():
    found = plain.monoids_by_backtracking(4)
    assert all(plain.validate(as_index(table, 4)).passed for table in found)
    representatives = []
    for table in found:
        if not any(isomorphic(table, rep, 4) for rep in representatives):
            representatives.append(table)
    assert (len(found), len(representatives)) == (156, 35)
    tables = list(found)
    for table in found:
        for cell in itertools.product(range(1, 4), repeat=2):
            tables += [{**table, cell: value} for value in range(4) if value != table[cell]]
    assert len(tables) == 156 + 156 * 9 * 3
    verdicts = collections.Counter()
    for table in tables:
        index = as_index(table, 4)
        report, want = validate_category(index), plain.validate(index)
        assert (report.line(), report.witness) == (want.line(), want.witness), table
        verdicts[report.detail or "pass"] += 1
    # a replaced entry can give another monoid, so more tables pass than the 156
    assert verdicts["associativity fails"] + verdicts["pass"] == len(tables)
    assert verdicts["associativity fails"] > 3000, verdicts
