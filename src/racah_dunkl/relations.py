"""Exhaustive verification of the symmetry-algebra identities.

Every check materializes the operators of an identity on the monomials
of degrees 0..kmax, one direct sum (a DegreeSum), and forms the exact
difference of its two sides as one ``linalg.product_sum``: a signed sum
of products of matrices, block-diagonal by degree, over one denominator.
A DegreeSum takes each operator once, on the ambient degrees 0..top its
checks reach, and reads every factor as a leading block of that matrix;
J+, J- and the full Laplacian change the degree, the other generators
keep it.  Every ``verify`` suite records through a DegreeSum, and every
witness is a column of a discrepancy, read as a polynomial by
``DegreeSum.column_witnesses``.  ``DegreeSum.report`` takes checks
(relation, index tuple, term list) and records one result per degree k,
witnessed by the first nonzero column of degree k; the harmonic suites
of harmonics.py read one witness per column of a matrix whose columns
are the towers' polynomials (``DegreeSum.columns``).  A
RelationWorkspace, a DegreeSum with one DunklOperators, is the generator
table of the suites that read a generator more than once (racah, lemma2,
drinfeld-kohno and embedding): C_A, P_ij, L_ij, L_ij^2, F_ijm and the
diagonal factors, each built on its first request and kept.

su11 and lemma1 prove each check on the variables of its subset A first
(``DegreeSum.local_first``).  The certificate is the operators' own
coordinate data: when the support of every factor lies in A, the check's
discrepancy on n variables is its discrepancy D on the monomials of x_A
tensored with the identity on the other variables, so D = 0 on degrees
0..kmax makes the check hold on every degree.  lemma1 splits the full
Laplacian's moves by position into Lap|A + Lap|A^c; the second acts on
other variables than C_A and so commutes with it, and [C_A, Lap|A] is
the local check (a Laplacian that is not a sum of moves is read whole).
Lap|A is the full Laplacian's kept restriction to A, which is C_A's own
Lap_A, so its matrix is built once.
A support outside A or a nonzero D sends the check to the n-variable
sum, so every failure keeps its n-variable witness.  racah, lemma2,
drinfeld-kohno and embedding stay on the n-variable sum.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, chain, combinations, compress, permutations
from math import lcm

from .linalg import RationalMatrix, Term, product_sum
from .operators import (
    DunklOperators,
    LinearOperator,
    angular,
    casimir,
    laplace,
    materialize_on_monomials,
    normalize_subset,
    su11_triple,
)
from .poly import ParameterSet, Polynomial, monomial_basis, monomial_positions
from .report import Report

def default_degree_bound(n: int) -> int:
    # bounds keeping full relation sweeps in seconds-to-minutes
    return {3: 6, 4: 4, 5: 5, 6: 4, 7: 3}.get(n, 2)


def nonempty_subsets(n: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    for size in range(1, n + 1):
        out.extend(combinations(range(1, n + 1), size))
    return out


class DegreeSum:
    """The monomials of degrees 0..kmax in n variables, as one direct sum.

    Its ``dim`` monomials are the degree-0 ones, then the degree-1 ones,
    and so on, in the ambient order that runs up to degree ``top`` (kmax
    by default); ``ends[d]`` counts the ambient monomials of degree below d.
    A check is (relation, index tuple, term list): its discrepancy, the
    term list's product sum, maps degrees 0..kmax to ambient degrees.  A
    kmax below 0 gives no degree.  The variables are x_1..x_n, or the x_v
    for v in ``variables`` (1-based, sorted), and then ``n`` is their
    count and operators are read on those variables alone; ``positions``
    holds them 0-based, or None when they are 0..n-1.
    """

    def __init__(
        self, n: int, kmax: int, top: int | None = None, variables: tuple[int, ...] | None = None
    ):
        positions = tuple(range(n)) if variables is None else tuple(v - 1 for v in variables)
        self.n = n = len(positions)
        self.positions = None if positions == tuple(range(n)) else positions
        self.kmax = kmax
        self.top = kmax if top is None else top
        self.degrees = range(max(kmax + 1, 0))
        dims = (len(monomial_basis(n, d)) for d in range(self.top + 1))
        self.ends = list(accumulate(dims, initial=0))
        self.dim = self.ends[max(kmax + 1, 0)]

    def materialize(self, op: LinearOperator) -> RationalMatrix:
        """op on the ambient degrees 0..top: its rows and columns both start at degree 0."""
        low, high = min(0, -op.shift), self.top - max(0, op.shift)
        if self.positions is None:
            return materialize_on_monomials(op, self.n, low, high)
        return materialize_on_monomials(op, self.n, low, high, self.positions)

    def local_first(self, A: tuple[int, ...], build, operators, local):
        """The checks of build(self, A, *operators), each proven on A's variables when it can be.

        ``local`` are operators whose checks hold here exactly when those
        of ``operators`` do, provided their supports lie in A.  When they
        do, each check of build on the monomials of A's variables alone,
        to the same degrees, whose discrepancy D is zero holds here on
        every degree, since here its discrepancy is D tensored with the
        identity on the other variables: it is yielded with the term list
        None.  Every other check, and every check when local reaches
        outside A or A holds all the variables, is built here from
        ``operators``, so its witness reads the same.
        """
        if len(A) == self.n or not _within(A, *local):
            yield from build(self, A, *operators)
            return
        on_a, here = DegreeSum(self.n, self.kmax, self.top, A), None
        for i, (relation, idx, terms) in enumerate(build(on_a, A, *local)):
            if product_sum(terms).is_zero:
                yield relation, idx, None
                continue
            if here is None:
                here = list(build(self, A, *operators))
            yield here[i]

    def lead(self, matrix: RationalMatrix, rows: int, cols: int) -> RationalMatrix:
        """An ambient matrix's rows of degree <= rows and columns of degree <= cols.

        The matrix is block-diagonal by degree: the block shares its rows and den.
        """
        r, c = self.ends[max(rows + 1, 0)], self.ends[max(cols + 1, 0)]
        return RationalMatrix.from_sparse(matrix.sparse_rows[:r], matrix.den, c)

    def columns(self, polys) -> RationalMatrix:
        """Homogeneous polynomials of degree <= kmax as columns on the ambient rows."""
        den = lcm(1, *(p.den for p in polys))
        rows: list[dict[int, int]] = [{} for _ in range(self.dim)]
        for j, p in enumerate(polys):
            scale = den // p.den
            for exps, x in p.terms.items():
                d = sum(exps)
                rows[self.ends[d] + monomial_positions(self.n, d)[exps]][j] = x * scale
        return RationalMatrix.from_sparse(rows, den, len(polys))

    def column_witnesses(self, diff: RationalMatrix) -> list[str | None]:
        """Per column of a matrix on the ambient rows, its polynomial's text, or None."""
        cols: list[dict] = [{} for _ in range(diff.ncols)]
        monomials = chain.from_iterable(monomial_basis(self.n, d) for d in range(self.top + 1))
        for exps, row in compress(zip(monomials, diff.sparse_rows), diff.sparse_rows):
            for j in row:
                cols[j][exps] = row[j]
        return [Polynomial._reduced(self.n, c, diff.den).to_text() if c else None for c in cols]

    def report(self, groups) -> Report:
        """Each check of each group summed once and recorded once per degree.

        The groups are recorded in turn, each degree-major: all its checks
        on degree 0, then on degree 1, and so on, each degree in the
        group's order.  A check's witness on degree k is the first of its
        columns of degree k that ``column_witnesses`` reads as nonzero; a
        check whose term list is None was proven (``local_first``) and
        holds on every degree.
        """
        spans = [(self.ends[k], self.ends[k + 1]) for k in self.degrees]
        held = [None] * len(spans)
        report = Report()
        for group in groups:
            witnessed = []
            for relation, idx, terms in group:
                witnesses = held
                if terms is not None and not (diff := product_sum(terms)).is_zero:
                    cols = self.column_witnesses(diff)
                    witnesses = [next(filter(None, cols[a:b]), None) for a, b in spans]
                witnessed.append((relation, idx, witnesses))
            for k in self.degrees:
                for relation, idx, witnesses in witnessed:
                    report.add(relation, idx, k, witnesses[k])
        return report


class RelationWorkspace(DegreeSum):
    """The generator table of a relation sweep, on the direct sum of degrees 0..kmax.

    It holds one DunklOperators, and its accessors return the generators'
    block-diagonal matrices, block k the generator on the degree-k
    monomials: C_A (``c``, keyed by its sorted subset), the closed form
    c1_i of C_i, the reflection factor R_i = 1 + 2 mu_i r_i (``refl``),
    L_ij in either orientation, L_ij^2, P_ij and F_ijm.  Each is built on
    its first request and kept in ``built``, so a later request is one
    dict lookup and a sweep builds only what it reads.  c1_i, R_i and the
    square of the pair form read the reflection signs r_i = (-1)^e_i
    alone, so each is a degree diagonal over {i} or {i, j}; the square is
    read once per pair and is not kept.
    """

    def __init__(self, ops: DunklOperators, kmax: int):
        super().__init__(ops.n, kmax)
        self.ops = ops
        self.built: dict[tuple, RationalMatrix] = {}

    def c(self, A) -> RationalMatrix:
        # keyed by the sorted subset: embedding's K + L comes unsorted
        key = ("C", normalize_subset(A, self.n))
        if (matrix := self.built.get(key)) is None:
            matrix = self.built[key] = self.materialize(casimir(self.ops, key[1]))
        return matrix

    def c1(self, i: int) -> RationalMatrix:
        # 1/4 (mu^2 - mu r - 3/4): with mu = a / b, (4a^2 - 4ab r - 3b^2) / 16b^2
        key = ("c1", i)
        if (matrix := self.built.get(key)) is None:
            mu = self.ops.params.mu_of(i)
            a, b = mu.numerator, mu.denominator
            c1 = _sign_diagonal((i,), lambda r: 4 * a * a - 4 * a * b * r - 3 * b * b, 16 * b * b)
            matrix = self.built[key] = self.materialize(c1)
        return matrix

    def refl(self, i: int) -> RationalMatrix:
        # 1 + 2 mu r = (b + 2a r) / b
        key = ("R", i)
        if (matrix := self.built.get(key)) is None:
            mu = self.ops.params.mu_of(i)
            a, b = mu.numerator, mu.denominator
            refl = _sign_diagonal((i,), lambda r: b + 2 * a * r, b)
            matrix = self.built[key] = self.materialize(refl)
        return matrix

    def square(self, i: int, j: int) -> RationalMatrix:
        # (mu_i r_i + mu_j r_j)^2 = (mu_i + mu_j r_i r_j)^2 = (a_i b_j + a_j b_i r)^2 / (b_i b_j)^2
        mu_i, mu_j = self.ops.params.mu_of(i), self.ops.params.mu_of(j)
        u, v = mu_i.numerator * mu_j.denominator, mu_j.numerator * mu_i.denominator
        den = (mu_i.denominator * mu_j.denominator) ** 2
        return self.materialize(_sign_diagonal((i, j), lambda r: (u + v * r) ** 2, den))

    def l(self, i: int, j: int) -> RationalMatrix:
        # L_ji = -L_ij
        key = ("L", i, j)
        if (matrix := self.built.get(key)) is None:
            matrix = self.materialize(angular(self.ops, i, j)) if i < j else -self.l(j, i)
            self.built[key] = matrix
        return matrix

    def l2(self, i: int, j: int) -> RationalMatrix:
        key = ("L2", i, j) if i < j else ("L2", j, i)
        if (matrix := self.built.get(key)) is None:
            lij = self.l(*key[1:])
            matrix = self.built[key] = lij * lij
        return matrix

    def p(self, i: int, j: int) -> RationalMatrix:
        # P_ij = C_ij - C_i - C_j
        key = ("P", i, j) if i < j else ("P", j, i)
        if (matrix := self.built.get(key)) is None:
            terms = [(1, (self.c(key[1:]),)), (-1, (self.c1(i),)), (-1, (self.c1(j),))]
            matrix = self.built[key] = product_sum(terms).normalized()
        return matrix

    def f(self, i: int, j: int, m: int) -> RationalMatrix:
        # F_ijm = 1/2 [P_ij, P_jm]
        key = ("F", i, j, m)
        if (matrix := self.built.get(key)) is None:
            terms = _commutator(self.p(i, j), self.p(j, m), Fraction(1, 2))
            matrix = self.built[key] = product_sum(terms).normalized()
        return matrix


def _sign_diagonal(indices: tuple[int, ...], value, den: int) -> LinearOperator:
    """value(r) / den on x^e, with r = (-1)^s and s the degree of x^e over indices.

    r is the product of the reflection signs r_i over the indices, so the
    operator is their degree diagonal; value(r) is an integer.
    """
    name = ",".join(map(str, indices))
    return LinearOperator.degree_diagonal(
        [i - 1 for i in indices], lambda s: value(-1 if s & 1 else 1), f"r{{{name}}}", den
    )


def _commutator(a: RationalMatrix, b: RationalMatrix, c=1) -> list[Term]:
    """The terms of c [a, b]."""
    return [(c, (a, b)), (-c, (b, a))]


def verify_su11(params: ParameterSet, kmax: int) -> Report:
    """Bracket identities of the raising/lowering triple, on all degrees <= kmax.

    For each subset A the three identities [A0, J+] = J+, [A0, J-] = -J-
    and [J-, J+] = 2 A0 are each summed once on the direct sum of degrees
    0..kmax.  J+ raises the degree by two and J- lowers it by two, so the
    discrepancies map degree k to degree k + 2, k - 2 and k, each factor
    is a block of one matrix on degrees 0..kmax + 2, and each witness is
    written on the degree its discrepancy maps to.  When the supports of
    A0, J+ and J- lie in A, each identity is summed on the monomials of
    A's variables first (``DegreeSum.local_first``).  The report is
    subset-major: subset, then degree, then relation.
    """
    space = DegreeSum(params.n, kmax, kmax + 2)
    ops = DunklOperators(params)
    triples = ((A, su11_triple(ops, A)) for A in nonempty_subsets(params.n))
    return space.report(space.local_first(A, _su11_brackets, t, t) for A, t in triples)


def _within(A: tuple[int, ...], *ops: LinearOperator) -> bool:
    """Whether the coordinate data of every op lies on the variables of A."""
    positions = {i - 1 for i in A}
    return all(op.support <= positions for op in ops)


def _su11_brackets(space: DegreeSum, A: tuple[int, ...], a0, jp, jm):
    # A0, J+ and J- map degree d to degrees d, d + 2 and d - 2; each other
    # factor is the leading block of one of them that its neighbours need
    a0_up, jp_0, jm_up = (space.materialize(op) for op in (a0, jp, jm))
    k, lead = space.kmax, space.lead
    a0_0, a0_down = lead(a0_up, k, k), lead(a0_up, k - 2, k - 2)
    jp_down, jm_0 = lead(jp_0, k, k - 2), lead(jm_up, k - 2, k)
    yield "su11-raising", A, [(1, (a0_up, jp_0)), (-1, (jp_0, a0_0)), (-1, (jp_0,))]
    yield "su11-lowering", A, [(1, (a0_down, jm_0)), (-1, (jm_0, a0_0)), (1, (jm_0,))]
    yield "su11-bracket", A, [(1, (jm_up, jp_0)), (-1, (jp_down, jm_0)), (-2, (a0_0,))]


def verify_racah_relations(params: ParameterSet, kmax: int) -> Report:
    """Full sweep of the quadratic-algebra relations on degrees <= kmax.

    Covers, for every admissible tuple of distinct indices:

    * the commutator [P_ij, P_jk] against the independent angular-momentum
      expansion of F_ijk, plus the antisymmetry F_kji = -F_ijk;
    * [P_jk, F_ijk] = P_ik P_jk - P_jk P_ij + 2 P_ik C_j - 2 P_ij C_k;
    * [P_kl, F_ijk] = P_ik P_jl - P_il P_jk            (needs n >= 4);
    * [F_ijk, F_jkl] = F_jkl P_ij - F_ikl (P_jk + 2 C_j) - F_ijk P_jl;
    * [F_ijk, F_klm] = F_ilm P_jk - P_ik F_jlm         (needs n >= 5);

    together with the closed forms of the one- and two-index invariants,
    the subset additivity of the invariants, and the commutativity pattern
    of the two-index invariants.  A family whose index tuples need more
    coordinates than n has no instances and records nothing.  Each check
    is summed once on the direct sum of degrees 0..kmax and recorded once
    per degree; a kmax below 0 checks nothing.
    """
    n = params.n
    if n < 3:
        raise ValueError("the relation sweep needs at least three coordinates")
    ws = RelationWorkspace(DunklOperators(params), kmax)
    families = (
        _single_invariant_form,
        _pair_invariant_form,
        _subset_additivity,
        _f_from_angular,
        _triple_relation,
        _quad_pf_relation,
        _quad_ff_relation,
        _quint_ff_relation,
    )
    return ws.report([chain(*(family(ws) for family in families), _drinfeld_kohno(ws))])


def _single_invariant_form(ws: RelationWorkspace):
    # generic quadratic invariant of one index vs its reflection closed form
    for i in range(1, ws.n + 1):
        ci = ws.materialize(casimir(ws.ops, (i,)))
        yield "single-invariant-closed-form", (i,), [(1, (ci,)), (-1, (ws.c1(i),))]


def _pair_invariant_form(ws: RelationWorkspace):
    # 4 C_ij + L_ij^2 - (mu_i r_i + mu_j r_j)^2 + 1 = 0
    one = RationalMatrix.identity(ws.dim)
    for i, j in combinations(range(1, ws.n + 1), 2):
        yield "pair-invariant-angular-form", (i, j), [
            (4, (ws.c((i, j)),)), (1, (ws.l2(i, j),)), (-1, (ws.square(i, j),)), (1, (one,)),
        ]


def _subset_additivity(ws: RelationWorkspace):
    # C_A = sum of pair invariants minus (|A| - 2) * sum of single invariants
    for size in range(3, ws.n + 1):
        for A in combinations(range(1, ws.n + 1), size):
            ca = ws.materialize(casimir(ws.ops, A))
            terms = [(1, (ca,))]
            terms += [(-1, (ws.c(pair),)) for pair in combinations(A, 2)]
            terms += [(size - 2, (ws.c1(i),)) for i in A]
            yield "subset-additivity", A, terms


def _f_from_angular(ws: RelationWorkspace):
    # 16 F_ijm = L_ij^2 R_m - L_im^2 R_j - L_jm^2 R_i + 2 L_im L_ij L_jm,
    # with the reflection factor R_t = 1 + 2 mu_t r_t
    sixteenth = Fraction(1, 16)
    for idx in permutations(range(1, ws.n + 1), 3):
        i, j, m = idx
        if i > m:
            continue
        yield "f-from-angular-momentum", idx, [
            (1, (ws.f(i, j, m),)),
            (-sixteenth, (ws.l2(i, j), ws.refl(m))),
            (sixteenth, (ws.l2(i, m), ws.refl(j))),
            (sixteenth, (ws.l2(j, m), ws.refl(i))),
            (-2 * sixteenth, (ws.l(i, m), ws.l(i, j), ws.l(j, m))),
        ]
        yield "f-antisymmetry", idx, [(1, (ws.f(m, j, i),)), (1, (ws.f(i, j, m),))]


def _triple_relation(ws: RelationWorkspace):
    # [P_jm, F_ijm] = P_im P_jm - P_jm P_ij + 2 P_im C_j - 2 P_ij C_m
    for idx in permutations(range(1, ws.n + 1), 3):
        i, j, m = idx
        p_ij, p_im, p_jm = ws.p(i, j), ws.p(i, m), ws.p(j, m)
        yield "triple-relation", idx, _commutator(p_jm, ws.f(i, j, m)) + [
            (-1, (p_im, p_jm)),
            (1, (p_jm, p_ij)),
            (-2, (p_im, ws.c1(j))),
            (2, (p_ij, ws.c1(m))),
        ]


def _quad_pf_relation(ws: RelationWorkspace):
    # [P_ml, F_ijm] = P_im P_jl - P_il P_jm
    for idx in permutations(range(1, ws.n + 1), 4):
        i, j, m, l = idx
        yield "quad-pf-relation", idx, _commutator(ws.p(m, l), ws.f(i, j, m)) + [
            (-1, (ws.p(i, m), ws.p(j, l))),
            (1, (ws.p(i, l), ws.p(j, m))),
        ]


def _quad_ff_relation(ws: RelationWorkspace):
    # [F_ijm, F_jml] = F_jml P_ij - F_iml (P_jm + 2 C_j) - F_ijm P_jl
    for idx in permutations(range(1, ws.n + 1), 4):
        i, j, m, l = idx
        f_ijm, f_jml, f_iml = ws.f(i, j, m), ws.f(j, m, l), ws.f(i, m, l)
        yield "quad-ff-relation", idx, _commutator(f_ijm, f_jml) + [
            (-1, (f_jml, ws.p(i, j))),
            (1, (f_iml, ws.p(j, m))),
            (2, (f_iml, ws.c1(j))),
            (1, (f_ijm, ws.p(j, l))),
        ]


def _quint_ff_relation(ws: RelationWorkspace):
    # [F_ijm, F_mlq] = F_ilq P_jm - P_im F_jlq
    for idx in permutations(range(1, ws.n + 1), 5):
        i, j, m, l, q = idx
        yield "quint-ff-relation", idx, _commutator(ws.f(i, j, m), ws.f(m, l, q)) + [
            (-1, (ws.f(i, l, q), ws.p(j, m))),
            (1, (ws.p(i, m), ws.f(j, l, q))),
        ]


def _drinfeld_kohno(ws: RelationWorkspace):
    n, c = ws.n, ws.c
    for i, j in combinations(range(1, n + 1), 2):
        for m, l in combinations(range(1, n + 1), 2):
            if (i, j) < (m, l) and not {i, j} & {m, l}:
                yield "disjoint-pairs-commute", (i, j, m, l), _commutator(c((i, j)), c((m, l)))
    for i, j in combinations(range(1, n + 1), 2):
        for m in range(1, n + 1):
            if m in (i, j):
                continue
            # [C_ij, C_im + C_jm]
            terms = _commutator(c((i, j)), c((i, m))) + _commutator(c((i, j)), c((j, m)))
            yield "adjacent-pair-sum-commutes", (i, j, m), terms


def verify_drinfeld_kohno(params: ParameterSet, kmax: int) -> Report:
    """Commutativity pattern of the two-index invariants, as a standalone sweep."""
    ws = RelationWorkspace(DunklOperators(params), kmax)
    return ws.report([_drinfeld_kohno(ws)])


def verify_casimir_laplacian_commute(params: ParameterSet, kmax: int) -> Report:
    """[C_A, Lap] = 0 for every nonempty A, on all degrees <= kmax.

    The full Laplacian lowers the degree by two, so the commutator
    C_A Lap - Lap C_A maps degree k to degree k - 2, with C_A on degrees
    0..kmax on the right and its leading block on 0..kmax - 2 on the left,
    and each witness is written on degree k - 2.  When C_A's support lies
    in A and the Laplacian is coordinate moves, its moves split by
    position into Lap|A + Lap|A^c.  The second acts on other variables
    than C_A, so it commutes with C_A, and [C_A, Lap|A] is summed on the
    monomials of A's variables first (``DegreeSum.local_first``).  Lap|A
    is the Laplacian's kept restriction to A (``moves_at``), which is
    C_A's own Lap_A with its kept matrix.  The report is subset-major.
    """
    n = params.n
    space = DegreeSum(n, kmax)
    ops = DunklOperators(params)
    lap = laplace(ops, range(1, n + 1))
    subsets = nonempty_subsets(n)
    return space.report(_lemma1_checks(space, casimir(ops, A), lap, A) for A in subsets)


def _lemma1_checks(space: DegreeSum, ca: LinearOperator, lap: LinearOperator, A: tuple[int, ...]):
    # [C_A, Lap] = [C_A, Lap|A] when C_A commutes with Lap|A^c
    local = (ca, lap)
    if lap.moves is not None:
        name = f"{lap.descriptor}|{{{','.join(map(str, A))}}}"
        local = (ca, lap.moves_at([i - 1 for i in A], name, lap.den))
    return space.local_first(A, _laplacian_commutator, (ca, lap), local)


def _laplacian_commutator(space: DegreeSum, A: tuple[int, ...], ca, lap):
    # C_A Lap - Lap C_A, from degrees 0..kmax to degrees 0..kmax - 2
    ca_0, lap_0 = space.materialize(ca), space.materialize(lap)
    ca_below = space.lead(ca_0, space.kmax - 2, space.kmax - 2)
    yield "invariant-commutes-with-laplacian", A, [(1, (ca_below, lap_0)), (-1, (lap_0, ca_0))]


def verify_nested_disjoint_commute(params: ParameterSet, kmax: int) -> Report:
    """[C_A, C_B] = 0 whenever A and B are nested or disjoint."""
    ws = RelationWorkspace(DunklOperators(params), kmax)
    return ws.report([_nested_disjoint_commutators(ws)])


def _nested_disjoint_commutators(ws: RelationWorkspace):
    subsets = nonempty_subsets(ws.n)
    for a_idx, A in enumerate(subsets):
        for B in subsets[a_idx + 1:]:
            sa, sb = set(A), set(B)
            if sa <= sb or sb <= sa:
                relation = "nested-invariants-commute"
            elif not (sa & sb):
                relation = "disjoint-invariants-commute"
            else:
                continue
            yield relation, (A, B), _commutator(ws.c(A), ws.c(B))


def verify_embedding(
    params: ParameterSet,
    K: tuple[int, ...],
    L: tuple[int, ...],
    M: tuple[int, ...],
    kmax: int,
) -> Report:
    """Rank-one subalgebra relations among invariants of three disjoint blocks.

    For pairwise disjoint K, L, M the operators attached to the pairwise
    unions generate a copy of the three-index algebra: the union invariant
    decomposes additively, the three cyclic commutators agree, and the
    three equitable-form relations hold.
    """
    n = params.n
    K = normalize_subset(K, n)
    L = normalize_subset(L, n)
    M = normalize_subset(M, n)
    if set(K) & set(L) or set(K) & set(M) or set(L) & set(M):
        raise ValueError("blocks K, L, M must be pairwise disjoint")

    ws = RelationWorkspace(DunklOperators(params), kmax)
    return ws.report([_embedding_relations(ws, (K, L, M))])


def _embedding_relations(ws: RelationWorkspace, blocks):
    K, L, M = blocks
    c_k, c_l, c_m = ws.c(K), ws.c(L), ws.c(M)
    c_kl, c_km, c_lm = ws.c(K + L), ws.c(K + M), ws.c(L + M)
    c_klm = ws.c(K + L + M)
    # F = 1/2 [C_KL, C_LM]
    f = product_sum(_commutator(c_kl, c_lm, Fraction(1, 2))).normalized()

    def equitable(x, y, z, a, b, c):
        # [x, F] - (y x - x z + (b - a)(c - C_KLM))
        return _commutator(x, f) + [
            (-1, (y, x)), (1, (x, z)),
            (-1, (b, c)), (1, (b, c_klm)), (1, (a, c)), (-1, (a, c_klm)),
        ]

    yield "embedding-additivity", blocks, [
        (1, (c_klm,)), (-1, (c_kl,)), (-1, (c_km,)), (-1, (c_lm,)),
        (1, (c_k,)), (1, (c_l,)), (1, (c_m,)),
    ]
    # 2F - [C_KM, C_KL] and 2F - [C_LM, C_KM]
    yield "embedding-f-consistency-1", blocks, (
        _commutator(c_kl, c_lm) + _commutator(c_km, c_kl, -1)
    )
    yield "embedding-f-consistency-2", blocks, (
        _commutator(c_kl, c_lm) + _commutator(c_lm, c_km, -1)
    )
    yield "embedding-equitable-1", blocks, equitable(c_kl, c_lm, c_km, c_k, c_l, c_m)
    yield "embedding-equitable-2", blocks, equitable(c_lm, c_km, c_kl, c_l, c_m, c_k)
    yield "embedding-equitable-3", blocks, equitable(c_km, c_kl, c_lm, c_m, c_k, c_l)
