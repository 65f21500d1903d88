"""Independent brute-force oracles.

These stay deliberately naive: tableau enumeration, full monomial sums and
exhaustive searches, so that they share no code path with the
implementations they check.
"""

from fractions import Fraction
from itertools import combinations, product

from hgrcalc import towers
from hgrcalc.coeffs import primitive_integers
from hgrcalc.forms import (DegenerateFormError, Diagonalization, FFElement,
                           FormsError)
from hgrcalc.polynomial import (Poly, PolyRing, dot, mat_apply,
                                mat_identity, mat_mul, mat_shape,
                                mat_transpose, smith_normal_form)
from hgrcalc.symfun import Partition, schur_in_elementary


def variable_ring(m):
    return PolyRing(tuple("x%d" % i for i in range(1, m + 1)))


def elementary_in_vars(i, m):
    """e_i(x_1..x_m) as a sum over i-subsets."""
    ring = variable_ring(m)
    if i == 0:
        return ring.one()
    if i < 0 or i > m:
        return ring.zero()
    acc = ring.zero()
    for subset in combinations(range(m), i):
        e = [0] * m
        for j in subset:
            e[j] = 1
        acc = acc + ring.monomial(e)
    return acc


def complete_in_vars(k, m):
    """h_k(x_1..x_m): the sum of all degree-k monomials."""
    ring = variable_ring(m)
    if k == 0:
        return ring.one()
    acc = ring.zero()

    def rec(i, remaining, exps):
        if i == m - 1:
            acc_terms[tuple(exps + [remaining])] = 1
            return
        for e in range(remaining + 1):
            rec(i + 1, remaining - e, exps + [e])

    acc_terms = {}
    rec(0, k, [])
    return Poly(ring, acc_terms)


def ssyt_count_monomials(shape, m):
    """s_lambda(x_1..x_m) by enumerating semistandard Young tableaux."""
    ring = variable_ring(m)
    shape = tuple(shape)
    if not shape:
        return ring.one()
    rows = len(shape)
    terms = {}

    def rec(cells, tableau):
        if not cells:
            e = [0] * m
            for row in tableau:
                for v in row:
                    e[v - 1] += 1
            key = tuple(e)
            terms[key] = terms.get(key, 0) + 1
            return
        (i, j), rest = cells[0], cells[1:]
        lo = 1
        if j > 0:
            lo = max(lo, tableau[i][j - 1])          # weakly increase in rows
        if i > 0:
            lo = max(lo, tableau[i - 1][j] + 1)      # strictly increase in columns
        for v in range(lo, m + 1):
            tableau[i].append(v)
            rec(rest, tableau)
            tableau[i].pop()

    cells = [(i, j) for i in range(rows) for j in range(shape[i])]
    # fill row by row, left to right; constraints only look up and left
    rec(cells, [[] for _ in range(rows)])
    return Poly(ring, terms)


def eval_in_elementaries(poly, m):
    """Substitute e_i -> e_i(x_1..x_m) into a polynomial in Z[e_1..e_r]."""
    target = variable_ring(m)
    acc = target.zero()
    for exps, coeff in poly.terms.items():
        term = target.const(coeff)
        for i, e in enumerate(exps):
            for _ in range(e):
                term = term * elementary_in_vars(i + 1, m)
        acc = acc + term
    return acc


def brute_force_partitions_in_box(r, cols):
    """Every weakly decreasing tuple with at most r parts, parts <= cols."""
    found = set()
    for length in range(r + 1):
        for tup in product(range(1, cols + 1), repeat=length):
            if all(tup[i] >= tup[i + 1] for i in range(length - 1)):
                found.add(tup)
    return found


def all_elements(field):
    """Every element of the finite field, the one with base-p digits n
    (least significant first) at position n."""
    return [FFElement(field, digits[::-1])
            for digits in product(range(field.p), repeat=field.k)]


def gram_congruent_search(g1, g2, field_elements):
    """Search GL_2 for P with P^T g1 P == g2; tiny fields only."""
    els = list(field_elements)
    for a, b, c, d in product(els, repeat=4):
        if a * d - b * c == 0 * a:
            continue
        p = [[a, b], [c, d]]
        pt = [[a, c], [b, d]]
        m = _mat_mul(_mat_mul(pt, g1), p)
        if m == g2:
            return p
    return None


def gram_congruent_backtrack(g1, g2, field_elements):
    """Exhaustive isometry search by basis extension: columns of P found
    one at a time under the constraints (P^T g1 P)[i][j] = g2[i][j].

    Enumerates every candidate column, so it is still a brute-force oracle,
    but prunes enough to handle rank 3 over F_7.
    """
    els = list(field_elements)
    n = len(g1)

    def dot(u, w):
        return sum_start(u[i] * w[i] for i in range(n))

    # g1 v once per candidate: each pairing u^T g1 v is then a dot product
    candidates = []
    for cand in product(els, repeat=n):
        vec = list(cand)
        g1v = [dot(row, vec) for row in g1]
        candidates.append((vec, g1v, dot(vec, g1v)))

    def extend(cols):
        k = len(cols)
        if k == n:
            return cols
        for vec, g1v, norm in candidates:
            if norm != g2[k][k]:
                continue
            if any(dot(prev, g1v) != g2[i][k] for i, prev in enumerate(cols)):
                continue
            # keep the columns independent: reject if vec is a combination
            # of the previous ones (dimension check by elimination)
            if _dependent(cols + [vec], els):
                continue
            found = extend(cols + [vec])
            if found is not None:
                return found
        return None

    cols = extend([])
    if cols is None:
        return None
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def _dependent(vectors, field_elements):
    """Rank deficiency over a finite field by Gaussian elimination.

    Field elements must compare with the integers 0 and 1 (FFElement does).
    """
    rows = [list(v) for v in vectors]
    ncols = len(rows[0])
    pivot_col = 0
    r = 0
    while r < len(rows) and pivot_col < ncols:
        piv = None
        for i in range(r, len(rows)):
            if rows[i][pivot_col] != 0:
                piv = i
                break
        if piv is None:
            pivot_col += 1
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = next(e for e in field_elements if rows[r][pivot_col] * e == 1)
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][pivot_col] != 0:
                f = rows[i][pivot_col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
        pivot_col += 1
    return r < len(rows)


def transvection_matrix(ring, u, lam):
    """The dense matrix I - lam*(u u^T)J of x -> x + lam*omega(x,u)*u, for
    J block-diagonal in [[0,1],[-1,0]], written out entry by entry."""
    n2 = len(u)
    # the row u^T J: (u^T J)_{2t} = -u_{2t+1} and (u^T J)_{2t+1} = u_{2t}
    ut_j = [-u[j + 1] if j % 2 == 0 else u[j - 1] for j in range(n2)]
    return [[(ring.one() if i == j else ring.zero()) - lam * u[i] * ut_j[j]
             for j in range(n2)] for i in range(n2)]


def _mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[sum_start(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def transport_sign_by_matrices(source, target, image, gen_map):
    """chainduality.transport_sign with iota written out as integer
    matrices and every product summed in full: the sign e with
    iota^* psi = e * phi, or the ChainError message at the first failing
    degree."""
    sx, tx = source.complex, target.complex
    n = source.degree
    ring = tx.ring

    def lift(m):
        return [[x.map_to(ring, gen_map) for x in row]
                for row in m.dense(sx.ring.zero())]

    iota = {}
    for k in sx.ranks:
        labels = tx.labels.get(k, [])
        m = [[0] * sx.rank(k) for _ in labels]
        for col, label in enumerate(sx.labels[k]):
            at, c = image(label)
            m[labels.index(at)][col] = c
        iota[k] = m
    for k in sorted(sx.ranks):
        if k - 1 in sx.ranks:
            lhs = _mat_mul(iota[k - 1], lift(sx.diff(k)))
            if lhs != _mat_mul(tx.diff(k).dense(ring.zero()), iota[k]):
                return "the relabelling is not a chain map at degree %d" % k
    signs = [1, -1]
    for k in sorted(sx.ranks):
        if n - k not in sx.ranks:
            continue
        iota_t = [list(col) for col in zip(*iota[n - k])]
        pulled = _mat_mul(iota_t, _mat_mul(target.form(k).dense(ring.zero()),
                                           iota[k]))
        form = lift(source.form(k))
        signs = [e for e in signs
                 if pulled == [[e * x for x in row] for row in form]]
        if not signs:
            return ("the pulled-back form is neither plus nor minus the "
                    "form at degree %d" % k)
    return signs[0]


def quadratic_value(gram, v):
    """v^T G v as the double sum of v_i G_ij v_j over every pair (i, j)."""
    n = len(v)
    return sum_start(v[i] * gram[i][j] * v[j]
                     for i in range(n) for j in range(n))


def diagonalize_by_field_arithmetic(form):
    """forms.diagonalize as Gram-Schmidt on the field's own elements
    (Fraction or FFElement): the same pivot search, mixing step v_i + v_j
    and primitive integer columns over Q, so its Diagonalization, or its
    DegenerateFormError, must equal the library's exactly."""
    F = form.field
    n = form.n
    zero = F.zero()
    vecs = mat_identity(n, F.one(), zero)  # basis vectors as rows
    cols = mat_transpose(form.gram)  # G e_i, the columns of G
    out = []
    while vecs:
        pivot = next((i for i, (v, g) in enumerate(zip(vecs, cols))
                      if dot(v, g, zero)), None)
        if pivot is None:
            pair = next(((i, j) for i in range(len(vecs))
                         for j in range(i + 1, len(vecs))
                         if dot(vecs[i], cols[j], zero)), None)
            if pair is None:
                raise DegenerateFormError(
                    "form is degenerate; radical has dimension %d" % len(vecs),
                    radical_dimension=len(vecs))
            pivot, j = pair
            vecs[pivot] = [a + b for a, b in zip(vecs[pivot], vecs[j])]
            cols[pivot] = [a + b for a, b in zip(cols[pivot], cols[j])]
        v, gv = vecs.pop(pivot), cols.pop(pivot)
        inv_len = F.inv(dot(v, gv, zero))
        for k, w in enumerate(vecs):
            c = dot(gv, w, zero) * inv_len
            if c:
                vecs[k] = [a - c * b for a, b in zip(w, v)]
                cols[k] = [a - c * b for a, b in zip(cols[k], gv)]
        out.append(v)
    cleaned = [[Fraction(x) for x in primitive_integers(v)]
               if isinstance(v[0], Fraction) else v for v in out]
    p_matrix = mat_transpose(cleaned)
    check = mat_mul(mat_mul(cleaned, form.gram, zero), p_matrix, zero)
    entries = [check[i][i] for i in range(n)]
    if any(check[i][j] for i in range(n) for j in range(n) if i != j) \
            or not all(entries):
        raise FormsError("P^T G P mismatch")
    return Diagonalization(entries, p_matrix,
                           [F.square_class(e) for e in entries])


def sum_start(it):
    acc = None
    for x in it:
        acc = x if acc is None else acc + x
    return acc


def fraction_polys_equal(p, q):
    return (p - q).is_zero()


def vertical_strips_in_box(lam, k, rows, cols):
    """Every mu in the rows x cols box with mu/lam a vertical k-strip, by
    trying all 0/1 increments of the rows."""
    padded = list(lam) + [0] * (rows - len(lam))
    found = set()
    for bumps in product((0, 1), repeat=rows):
        mu = [p + b for p, b in zip(padded, bumps)]
        if (sum(bumps) == k and all(mu[i] >= mu[i + 1] for i in range(rows - 1))
                and (not mu or mu[0] <= cols)):
            found.add(tuple(p for p in mu if p))
    return found


def lr_coefficient(lam, mu, nu):
    """c^nu_{lam,mu}: the Littlewood-Richardson tableaux of shape nu/lam and
    content mu, counted by filling the skew shape cell by cell in reading
    order (rows top to bottom, each right to left)."""
    lam = tuple(lam) + (0,) * (len(nu) - len(lam))
    if (len(lam) > len(nu) or any(a > b for a, b in zip(lam, nu))
            or sum(nu) != sum(lam) + sum(mu)):
        return 0
    cells = [(i, j) for i in range(len(nu))
             for j in range(nu[i] - 1, lam[i] - 1, -1)]
    filling = {}
    used = [0] * (len(mu) + 1)

    def count(pos):
        if pos == len(cells):
            return 1
        i, j = cells[pos]
        total = 0
        for v in range(1, len(mu) + 1):
            if (i, j + 1) in filling and v > filling[i, j + 1]:
                continue  # rows weakly increase
            if (i - 1, j) in filling and v <= filling[i - 1, j]:
                continue  # columns strictly increase
            if used[v] == mu[v - 1] or (v > 1 and used[v] == used[v - 1]):
                continue  # content mu, and the reading word stays a lattice word
            filling[i, j] = v
            used[v] += 1
            total += count(pos + 1)
            used[v] -= 1
            del filling[i, j]
        return total

    return count(0)


def conjugate(lam):
    """The conjugate partition: the column lengths of the Young diagram."""
    if not lam.parts:
        return Partition()
    return Partition(tuple(sum(1 for p in lam.parts if p > j)
                           for j in range(lam.parts[0])))


def to_poly(x):
    """Lift a GrassElement back to Z[e_1..e_r] through the Schur polynomial
    of each class: the e-polynomial reference for products in the ring."""
    ring = x.ring.poly_ring()
    acc = ring.zero()
    for lam, c in x.coords.items():
        acc = acc + c * schur_in_elementary(lam, x.ring.r)
    return acc


def solve_integer(a, b):
    """An integer solution x of a x = b (vectors as columns), or None, read
    off the Smith form U a V = D: solve D y = U b entrywise, then x = V y.
    It shares no code with `hermite_column_form` or `FGAbelian.contains`."""
    u, d, v = smith_normal_form(a)
    rows, cols = mat_shape(d)
    if len(b) != rows:
        raise ValueError("right-hand side length does not match the matrix")
    ub = mat_apply(u, b)
    y = [0] * cols
    for i in range(rows):
        di = d[i][i] if i < cols else 0
        if di:
            if ub[i] % di:
                return None
            y[i] = ub[i] // di
        elif ub[i]:
            return None
    return mat_apply(v, y)


def _same_span(a, b):
    """Whether the columns of a and of b span the same lattice, by solving
    for each column of one in the other."""
    return (all(solve_integer(a, list(col)) is not None for col in zip(*b))
            and all(solve_integer(b, list(col)) is not None for col in zip(*a)))


def _smith_index(a):
    """Index of the column span of a in Z^rows from the Smith diagonal,
    None when the span has lower rank."""
    _, d, _ = smith_normal_form(a)
    diag = [d[t][t] for t in range(min(mat_shape(d))) if d[t][t]]
    if len(diag) < len(a):
        return None
    out = 1
    for x in diag:
        out *= x
    return out


def mittag_leffler_by_composites(tower, window):
    """(kind, reason, data) of `towers.check_mittag_leffler` the long way,
    as it was computed before the image chains, for the steps a window
    reaches: each Im(A_{k+j} -> A_k) is spanned by the columns of the
    composite map level_{k+j} -> level_k, multiplied out from scratch, and
    the relations of level k; spans are compared by solving for columns,
    and indices come from Smith diagonals.  No Hermite form is taken.
    Past the fast paths it certifies when every chain stabilizes within the
    window and otherwise reports how far each one got; it never refutes."""

    def relations(k):
        # a zero column keeps every matrix at least one column wide
        return [[col[r] for col in tower.level(k).relations] + [0]
                for r in range(tower.level(k).ngens)]

    def image(k, j):
        n = tower.level(k).ngens
        comp = [[int(r == c) for c in range(n)] for r in range(n)]
        for step in range(j):
            m = tower.map(k + step)
            comp = [[sum(comp[r][t] * m[t][c] for t in range(len(m)))
                     for c in range(len(m[0]) if m else 0)] for r in range(n)]
        return [row + rel for row, rel in zip(comp, relations(k))]

    def has_data(k, j):
        try:
            for step in range(j):
                tower.map(k + step)
        except towers.TowerError:
            return False
        return True

    if tower.tail != "finite-prefix-only":
        orders = [_smith_index(relations(k)) for k in range(len(tower.levels))]
        if None not in orders:
            return ("certificate",
                    "all level groups are finite; image chains stabilize",
                    {"orders": orders})
    if tower.maps and all(_smith_index(image(k, 1)) == 1
                          for k in range(len(tower.maps))):
        return ("certificate", "all supplied maps are surjective; image chains "
                "are constant at the full group",
                {"levels_checked": len(tower.maps)})

    stabilized_at = {}
    for k in range(len(tower.levels)):
        stable = None
        for j in range(2, window + 1):
            if not has_data(k, j):
                break
            if _same_span(image(k, j), image(k, j - 1)):
                stable = j - 1
                break
        stabilized_at[k] = stable
    if None not in stabilized_at.values():
        return ("certificate", "image chains stabilize",
                {"stabilized_at": stabilized_at})
    return ("inconclusive", "no stabilization within the window",
            {"stabilized_at": stabilized_at})
