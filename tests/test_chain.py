"""Chain complexes, cones, homology, and the derived-hom oracle."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import prochain
from conftest import (bench_module, big_complex, cells_spaces, changed_space,
                      random_composable_pair, random_map_into, random_map_out)
from oracles import cone_les_exact
from prochain import chain as chain_module
from prochain.chain import (ChainComplex, ChainMap, chain_map, cone, derived_hom,
                            free_one_term, hom_complex,
                            homology, homology_data, identity_map,
                            induced_homology_map, induced_map_on_derived_hom,
                            is_acyclic, is_chain_map, is_quasi_iso,
                            make_complex, minimal_model, moore_complex,
                            multiplication_map,
                            quasi_iso_thickening, random_complex,
                            random_null_homotopic, shift, validate,
                            zero_complex, zero_map)
from prochain.errors import (ContainmentViolation, PostconditionViolated,
                             SizeBudgetExceeded, ValidationError)
from prochain.exactalg.groups import group_from_orders, induced_hom
from prochain.exactalg.matrices import (IntMatrix, kernel_lattice, smith_diagonal,
                                       snf, span_lattice)
from prochain.exactalg.ring import GF, ZZ

Z0 = free_one_term(ZZ, 0)
M2 = moore_complex(2)


class TestBasics:
    def test_validate(self):
        assert validate(Z0) and validate(M2)
        with pytest.raises(ValidationError):
            make_complex(ZZ, {0: 1, 1: 1, 2: 1},
                         {1: IntMatrix.from_rows([[2]]),
                          2: IntMatrix.from_rows([[1]])})

    def test_generated_complexes_validate(self):
        for seed in range(25):
            assert validate(random_complex(seed, ZZ, -3, 3, 3))
        assert random_complex(0, ZZ, -2, 2, 0).is_zero
        a = random_complex(123, ZZ, -2, 2, 3)
        b = random_complex(123, ZZ, -2, 2, 3)
        assert a == b  # reproducible

    def test_replace_hashes_like_a_fresh_build(self):
        # the hash is kept on the instance once computed; a complex or map
        # rebuilt with one field replaced hashes like a freshly built equal
        # one, not like its original
        X = moore_complex(2)
        assert hash(X) == hash(moore_complex(2))
        Y = ChainComplex(X.ring, X.lo, X.hi, X.ranks, (IntMatrix.from_rows([[3]]),))
        fresh = moore_complex(3)
        assert Y == fresh and hash(Y) == hash(fresh) != hash(X)
        assert {fresh: 1}[Y] == 1
        f = multiplication_map(X, 2)
        assert hash(f) == hash(multiplication_map(moore_complex(2), 2))
        g = ChainMap(Y, Y, f.comps)
        assert g == multiplication_map(fresh, 2)
        assert hash(g) == hash(multiplication_map(fresh, 2)) != hash(f)

    def test_shift(self):
        assert shift(M2, 0) == M2
        assert shift(free_one_term(ZZ, 0), 2).rank(2) == 1
        # shifting negates the differential once per step
        S = shift(M2, 1)
        assert S.diff(2).entries == (-2,)
        assert shift(M2, 2).diff(3).entries == (2,)

    def test_homology_examples(self):
        assert homology(Z0, 0).free_rank == 1
        assert homology(M2, 0).invariant_factors == (2,)
        assert homology(M2, 5).is_trivial

    @pytest.mark.parametrize("ring", [ZZ, GF(2)])
    def test_empty_shapes_match_the_product_path(self, ring):
        # Lattice.coords answers rank-0 lattices and column-free B without
        # its products, and is_chain_map skips degrees where both squares
        # are empty; both agree with computing every product
        def product_coords(L, B):
            # the divisors divide nothing on these shapes
            X = L.C @ B
            return X if (L.basis @ X).entries == B.entries else None

        def products_commute(f):
            return all((f.target.diff(n) @ f.comp(n)).entries
                       == (f.comp(n - 1) @ f.source.diff(n)).entries
                       for n in range(min(f.source.lo, f.target.lo) + 1,
                                      max(f.source.hi, f.target.hi) + 1))

        rng = random.Random(17)
        rank0 = (kernel_lattice(IntMatrix.identity(3, ring)),
                 span_lattice(IntMatrix.zeros(3, 2, ring)))
        cases = [(L, B) for L in rank0 for k in (0, 1, 2)
                 for B in (IntMatrix.zeros(3, k, ring),
                           IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(k)]
                                                for _ in range(3)], ring, cols=k))]
        cases.append((span_lattice(IntMatrix.from_rows([[2, 0], [0, 1], [0, 0]], ring)),
                      IntMatrix.zeros(3, 0, ring)))
        for L, B in cases:
            got, want = L.coords(B), product_coords(L, B)
            assert (got is None) == (want is None)
            assert got is None or (got.shape, got.entries) == (want.shape, want.entries)
        disk = make_complex(ring, {0: 1, 1: 1}, {1: IntMatrix.from_rows([[1]], ring)})
        complexes = [zero_complex(ring), free_one_term(ring, 0), free_one_term(ring, 2),
                     disk, random_complex(3, ring, -1, 2, 2)]
        verdicts = []
        for X in complexes:
            for Y in complexes:
                for _ in range(3):
                    comps = {n: IntMatrix.from_rows(
                        [[rng.randint(-1, 1) for _ in range(X.rank(n))]
                         for _ in range(Y.rank(n))], ring, cols=X.rank(n))
                        for n in range(min(X.lo, Y.lo), max(X.hi, Y.hi) + 1)}
                    f = chain_map(X, Y, comps, check=False)
                    verdicts.append(is_chain_map(f))
                    assert verdicts[-1] == products_commute(f)
        assert len(set(verdicts)) == 2

    def test_f2_homology_of_a_large_sphere_in_a_changed_basis(self):
        # the boundary of the 9-simplex, S^8, in a changed basis drawn as
        # the `cells` workload draws it: differentials up to 252 x 210
        X = dict(cells_spaces(2, spaces=[("sphere", 9)]))["sphere9-changed"]
        assert [homology(X, n).orders for n in range(-1, 10)] == \
            [(), (0,)] + [()] * 7 + [(0,), ()]


class TestHomologyFromDiagonals:
    """`homology` reads H_n off the Smith diagonals; `homology_data`, which
    builds the cycle lattice and the presentation on it, is its oracle."""

    @given(st.integers(min_value=0, max_value=2 ** 30),
           st.sampled_from([ZZ, GF(2), GF(3)]))
    @settings(max_examples=25, deadline=None)
    def test_orders_match_the_subquotient(self, seed, ring):
        X = big_complex(random.Random(seed), ring, -3, 3, min_rank=40)
        for n in range(X.lo - 1, X.hi + 2):
            assert homology(X, n).orders == homology_data(X, n).group.orders, n

    @pytest.mark.parametrize("p", [0, 2])
    def test_cells_spaces(self, p):
        for label, X in cells_spaces(p):
            for n in range(X.lo - 1, X.hi + 2):
                assert homology(X, n).orders == homology_data(X, n).group.orders, \
                    (label, n)

    def test_builds_no_subquotient_and_replays_no_transform(self):
        # the diagonals come from `smith_diagonal`, which logs nothing: no
        # Smith form is built, and each differential is eliminated once
        X = dict(cells_spaces(0))["sphere6-changed"]
        prochain.cache_clear()
        groups = [homology(X, n) for n in X.degrees]
        assert homology_data.cache_info().currsize == 0
        assert snf.cache_info().currsize == 0
        read = {X.diff(n) for n in range(X.lo + 1, X.hi + 1)}
        assert smith_diagonal.cache_info().currsize == len(read) == X.hi - X.lo
        # canonical groups: equal invariants make equal groups
        assert groups[0] == groups[5] == group_from_orders((0,)) != groups[1]

    @pytest.mark.parametrize("name, size, shears", [
        ("torus", 4, 1.5), ("klein", 4, 1.5), ("sphere", 8, 0.75)])
    def test_past_the_smith_wall(self, name, size, shears):
        # in these bases the logged elimination of `snf` fills the torus's
        # and the 8-simplex's differentials and runs past 30 s on each; the
        # unit pivots keep them sparse.  The Klein bottle's draw is cheap for
        # `snf` as well
        X, known = changed_space(name, size, shears, random.Random(5))
        oracle = bench_module("oracle")
        for n in range(X.lo - 1, X.hi + 2):
            assert oracle.of_group(homology(X, n)) == known.get(n, oracle.ab_zero(0)), n

    def test_checks_d_o_d_once_per_complex(self, monkeypatch):
        # make_complex has checked what it built; a complex from the raw
        # constructor is checked on its first homology call and never again
        built = random_complex(7, ZZ, -2, 2, 3)
        raw = ChainComplex(ZZ, built.lo, built.hi, built.ranks, built.diffs)
        checked = []

        def recording(X):
            checked.append(X is raw)
            return validate(X)

        monkeypatch.setattr(chain_module, "validate", recording)
        for X in (built, raw, raw):
            prochain.cache_clear()
            for n in X.degrees:
                homology(X, n)
        assert checked == [True]


class TestCone:
    def test_cone_identity_acyclic(self):
        C = cone(identity_map(Z0))
        assert is_acyclic(C)

    def test_cone_times2(self):
        C = cone(multiplication_map(Z0, 2))
        assert homology(C, 0).invariant_factors == (2,)
        assert homology(C, 1).is_trivial

    def test_cone_from_zero(self):
        C = cone(zero_map(zero_complex(), M2))
        assert homology(C, 0).invariant_factors == (2,)

    def test_les_exactness(self):
        rng = random.Random(0)
        for seed in range(8):
            X = random_complex(seed, ZZ, -2, 2, 2)
            Y = random_complex(seed + 100, ZZ, -2, 2, 2)
            f = random_null_homotopic(rng, X, Y)
            assert cone_les_exact(f)
        assert cone_les_exact(multiplication_map(M2, 2))

    def test_cone_quasi_zero_iff_quasi_iso(self):
        rng = random.Random(1)
        assert is_quasi_iso(identity_map(M2))
        assert not is_quasi_iso(multiplication_map(Z0, 2))
        for seed in range(6):
            Y = random_complex(seed, ZZ, -1, 1, 2)
            q = quasi_iso_thickening(rng, Y)
            assert is_quasi_iso(q)


rings = st.sampled_from([ZZ, GF(2)])


class TestInducedMaps:
    def test_identity_and_multiplication(self):
        h = induced_homology_map(identity_map(M2), 0)
        assert h.matrix.entries == (1,)
        h = induced_homology_map(multiplication_map(Z0, 2), 0)
        assert h.matrix.entries == (2,)

    def test_null_homotopic_vanish(self):
        rng = random.Random(2)
        for seed in range(6):
            X = random_complex(seed, ZZ, -2, 2, 2)
            f = random_null_homotopic(rng, X, X)
            assert is_chain_map(f)
            for n in X.degrees:
                assert induced_homology_map(f, n).is_zero

    @pytest.mark.parametrize("ring", [ZZ, GF(2), GF(3)])
    def test_one_table_of_induced_maps(self, ring):
        # the table returns the map induced_hom builds on the two homology
        # subquotients, and a second call returns the same object
        rng = random.Random(11)
        for _ in range(12):
            f, g = random_composable_pair(rng, ring)
            for h in (f, g, g.compose(f)):
                for n in range(h.lo - 1, h.degrees.stop + 1):
                    got = induced_homology_map(h, n)
                    assert got == induced_hom(homology_data(h.source, n), h.comp(n),
                                              homology_data(h.target, n))
                    assert induced_homology_map(h, n) is got

    def test_encode_rejects_non_cycles(self):
        # the generator of M2 in degree 1 has boundary 2, so it is no cycle
        data = homology_data(M2, 1)
        with pytest.raises(ContainmentViolation):
            data.encode_matrix(IntMatrix.from_rows([[1]]))
        cycles = homology_data(M2, 0)
        assert cycles.encode_matrix(cycles.decode_matrix()).entries == (1,)

    @pytest.mark.parametrize("ring", [ZZ, GF(2), GF(3)])
    def test_boundaries_outside_the_cycles_are_refused(self, ring):
        # complexes built directly, past make_complex's d o d check: one
        # entry of d_{n+1} is changed so that d_n d_{n+1} != 0
        refused = 0
        for seed in range(80):
            X = random_complex(seed, ring, -2, 2, 3)
            for n in range(X.lo + 1, X.hi):
                d, up = X.diff(n), X.diff(n + 1)
                if not (d.entries and up.entries):
                    continue
                e = list(up.entries)
                e[seed % len(e)] += 1
                bad = IntMatrix(up.rows, up.cols, tuple(e), ring)
                if (d @ bad).is_zero:
                    continue
                diffs = list(X.diffs)
                diffs[n - X.lo] = bad
                Y = ChainComplex(X.ring, X.lo, X.hi, X.ranks, tuple(diffs))
                with pytest.raises(PostconditionViolated):
                    homology_data(Y, n)
                with pytest.raises(PostconditionViolated):
                    homology(Y, n)
                refused += 1
        assert refused >= 10

    def test_unreduced_differentials_are_cycles_mod_p(self):
        # d_1 = 3 and d_2 = 4 are 0 and 1 over F_3, so d o d = 0 there
        F3 = GF(3)
        X = ChainComplex(F3, 0, 2, (1, 1, 1), (IntMatrix(1, 1, (3,), F3),
                                               IntMatrix(1, 1, (4,), F3)))
        assert [homology(X, n).free_rank for n in range(3)] == [1, 0, 0]

    @pytest.mark.parametrize("ring", [ZZ, GF(2), GF(3)])
    def test_make_complex_reduces_into_the_ring(self, ring):
        # differentials given over Z, with negative and large entries
        d = IntMatrix(2, 2, (-1, 2 ** 70 + 1, 5, -(3 ** 50)), ZZ)
        X = make_complex(ring, {0: 2, 1: 2}, {1: d})
        assert X.diff(1).ring == ring
        assert X.diff(1).entries == tuple(ring.reduce(x) for x in d.entries)

    @given(st.integers(min_value=0, max_value=2 ** 30), rings)
    @settings(max_examples=30, deadline=None)
    def test_homology_functoriality(self, seed, ring):
        rng = random.Random(seed)
        B = big_complex(rng, ring, -2, 2)
        f, g = random_map_into(rng, B), random_map_out(rng, B)
        for n in range(B.lo - 1, B.hi + 2):
            composite = induced_homology_map(g.compose(f), n)
            assert composite.equal(induced_homology_map(g, n).compose(
                induced_homology_map(f, n)))

    @given(st.integers(min_value=0, max_value=2 ** 30), rings)
    @settings(max_examples=15, deadline=None)
    def test_derived_hom_functoriality(self, seed, ring):
        # [a o a2, b2 o b] = [a2, b2] o [a, b] for a2: X'' -> X' -> X by a
        # and b: Y -> Y' -> Y'' by b2
        rng = random.Random(seed)
        X, Y = big_complex(rng, ring, -1, 1), big_complex(rng, ring, -1, 1)
        a, b = random_map_into(rng, X), random_map_out(rng, Y)
        a2, b2 = random_map_into(rng, a.source), random_map_out(rng, b.target)
        for n in range(-3, 4):
            composite = induced_map_on_derived_hom(a.compose(a2), b2.compose(b), n)
            assert composite.equal(induced_map_on_derived_hom(a2, b2, n).compose(
                induced_map_on_derived_hom(a, b, n)))


class TestHomComplex:
    def test_ranks_moore(self):
        hc = hom_complex(M2, M2)
        assert (hc.complex.rank(1), hc.complex.rank(0), hc.complex.rank(-1)) \
            == (1, 2, 1)

    def test_into_zero(self):
        hc = hom_complex(M2, zero_complex())
        assert hc.complex.is_zero

    def test_size_is_checked_from_the_ranks(self, monkeypatch):
        # Hom(Z^4100 in degree 0, M2) has 4100 generators in degrees 1 and
        # 0, so its differential would have 4100^2 > MAX_DENSE_ENTRIES
        # entries; it is refused before any block is built
        monkeypatch.setattr(chain_module, "kron",
                            lambda *blocks: pytest.fail("a block was built"))
        X = free_one_term(ZZ, 0, 4100)
        with pytest.raises(SizeBudgetExceeded,
                           match="Hom complex differential of shape 4100x4100 "):
            hom_complex(X, M2)

    @given(st.integers(min_value=0, max_value=2 ** 30), rings)
    @settings(max_examples=15, deadline=None)
    def test_differential_matches_definition(self, seed, ring):
        # D(f) = d_Y o f + (-1)^n f o d_X on a random f of degree n, with f
        # written blockwise: block k is a Y_{k+n} x X_k matrix, row by row,
        # for the k with X_k and Y_{k+n} nonzero, in increasing order
        rng = random.Random(seed)
        X, Y = big_complex(rng, ring, -1, 1), big_complex(rng, ring, -1, 1)
        hc = hom_complex(X, Y).complex

        def layout(n):
            return [k for k in X.degrees if X.rank(k) and Y.rank(k + n)]

        def blocks(vec, n):
            out, off = {}, 0
            for k in layout(n):
                size = Y.rank(k + n) * X.rank(k)
                out[k] = IntMatrix(Y.rank(k + n), X.rank(k), vec[off:off + size], ring)
                off += size
            return out

        for n in range(hc.lo + 1, hc.hi + 1):
            vec = tuple(ring.reduce(rng.randint(-5, 5)) for _ in range(hc.rank(n)))
            f = blocks(vec, n)
            got = blocks(hc.diff(n).apply(vec), n - 1)
            sign = (-1) ** (n % 2)
            for k in layout(n - 1):
                want = IntMatrix.zeros(Y.rank(k + n - 1), X.rank(k), ring)
                if k in f:
                    want = want + Y.diff(k + n) @ f[k]
                if k - 1 in f:
                    want = want + (f[k - 1] @ X.diff(k)).scale(sign)
                assert got[k].entries == want.entries

    def test_oracle_values(self):
        assert derived_hom(M2, M2, 0).invariant_factors == (2,)
        assert derived_hom(M2, M2, -1).invariant_factors == (2,)
        assert derived_hom(M2, M2, 1).is_trivial

    def test_represented_functor(self):
        for seed in range(10):
            Y = random_complex(seed, ZZ, -2, 2, 2)
            for n in range(-3, 4):
                assert derived_hom(Z0, Y, n).isomorphic(homology(Y, n))

    def test_quasi_iso_invariance(self):
        rng = random.Random(3)
        for seed in range(5):
            X = random_complex(seed + 10, ZZ, -1, 1, 2)
            Y = random_complex(seed + 20, ZZ, -1, 1, 2)
            q = quasi_iso_thickening(rng, Y)
            for n in range(-2, 3):
                assert derived_hom(X, Y, n).isomorphic(
                    derived_hom(X, q.target, n))

    def test_shift_adjunction(self):
        for seed in range(4):
            X = random_complex(seed + 30, ZZ, -1, 1, 2)
            Y = random_complex(seed + 40, ZZ, -1, 1, 2)
            for k in (-1, 1, 2):
                for n in range(-2, 3):
                    assert derived_hom(X, shift(Y, k), n).isomorphic(
                        derived_hom(X, Y, n - k))

    def test_prime_field(self):
        F2 = GF(2)
        Z0f = free_one_term(F2, 0)
        for seed in range(5):
            Y = random_complex(seed, F2, -2, 2, 2)
            for n in range(-3, 4):
                assert derived_hom(Z0f, Y, n).isomorphic(homology(Y, n))


def check_minimal_model(X):
    """The same homology as X in every degree; over Z, rank M_n = rank X_n
    minus the unit invariant factors of d_n and d_{n+1}; over F_p, d = 0."""
    M = minimal_model(X)
    for n in range(min(X.lo, M.lo) - 1, max(X.hi, M.hi) + 2):
        assert homology(M, n).orders == homology(X, n).orders, n
    if X.ring.p:
        assert all(d.is_zero for d in M.diffs)
        return

    def units(n):
        return snf(X.diff(n)).invariant_factors.count(1)

    for n in range(X.lo, X.hi + 1):
        assert M.rank(n) == X.rank(n) - units(n) - units(n + 1), n


class TestMinimalModel:
    @given(st.integers(min_value=0, max_value=2 ** 30),
           st.sampled_from([ZZ, GF(2), GF(3)]))
    @settings(max_examples=25, deadline=None)
    def test_large_complexes(self, seed, ring):
        X = big_complex(random.Random(seed), ring, -3, 3, min_rank=40)
        check_minimal_model(X)

    @pytest.mark.parametrize("p", [0, 2, 3])
    def test_cells_spaces(self, p):
        for label, X in cells_spaces(p):
            check_minimal_model(X)
            # homology, and so the model, does not see the change of basis
            if label.endswith("-changed"):
                assert minimal_model(X) == minimal_model(standard)
            standard = X

    def test_examples(self):
        assert minimal_model(M2) == M2
        assert minimal_model(zero_complex()).is_zero
        disk = make_complex(ZZ, {0: 1, 1: 1}, {1: IntMatrix.from_rows([[1]])})
        assert minimal_model(disk).is_zero
        # H_0 = Z/2 + Z/6 + Z and H_1 = Z: degree 1 holds the generator of
        # H_1, then the two relations of H_0, sent onto its torsion generators
        X = make_complex(ZZ, {0: 3, 1: 3}, {1: IntMatrix.from_rows(
            [[0, 0, 6], [2, 0, 0], [0, 0, 0]])})
        M = minimal_model(X)
        assert (M.rank(0), M.rank(1)) == (3, 3)
        assert M.diff(1).entries == (0, 2, 0, 0, 0, 6, 0, 0, 0)
