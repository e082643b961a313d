"""Independent oracles for the test suite.

These deliberately avoid the code paths they check: eigenvalues come
from characteristic polynomials (companion-matrix roots) or from Sturm
bisection on the tridiagonal form, series constants from direct partial
summation.  Only ``dense_counts`` calls a LAPACK symmetric eigensolver, on
the dense matrix, to check the banded inertia counts, which never form it.
The model-file reference parser and formatter read and write one entry at
a time.  The complementary and Appendix-B references recompute every
weight-independent product from ``psi0`` on each call, per hopping
distance, as the package did before it shared them per ground state.  The
decay-fit reference solves its least-squares line by ``np.polyfit``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigvalsh, hessenberg

from gapbound import ModelSpec
from gapbound.eigensolver import HERMITIAN_TOL
from gapbound.errors import ModelFormatError


def random_hermitian(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * 0.5 * (a + a.conj().T)


def charpoly_coefficients(a: np.ndarray) -> np.ndarray:
    """Characteristic polynomial coefficients via Newton's identities."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    power = np.eye(n, dtype=complex)
    s = [complex(n)]
    for _ in range(n):
        power = power @ a
        s.append(np.trace(power))
    c = np.zeros(n + 1, dtype=complex)
    c[0] = 1.0
    for k in range(1, n + 1):
        acc = s[k]
        for j in range(1, k):
            acc += c[j] * s[k - j]
        c[k] = -acc / k
    return c


def charpoly_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a small Hermitian matrix from its characteristic polynomial.

    Root-finding goes through the companion matrix (nonsymmetric QR),
    a different algorithm from the tridiagonal route under test.
    Practical for n <= ~8.
    """
    roots = np.roots(charpoly_coefficients(a))
    return np.sort(roots.real)


def sturm_count(d: np.ndarray, e: np.ndarray, x: float) -> int:
    """Eigenvalues of the symmetric tridiagonal (d, e) strictly below x.

    Counts negative pivots of the LDL^T factorization of T - x I
    (Sylvester inertia).
    """
    count = 0
    q = 1.0
    tiny = 1e-300
    for i in range(len(d)):
        q = (d[i] - x) - (e[i - 1] * e[i - 1] / q if i else 0.0)
        if q == 0.0:
            q = -tiny
        if q < 0.0:
            count += 1
    return count


def dense_counts(h, shifts, cap: int) -> np.ndarray:
    """Eigenvalues of a banded operator strictly below each shift, capped at
    ``cap``, from ``eigvalsh`` of its dense matrix (:func:`band_to_dense`)."""
    w = eigvalsh(band_to_dense(h))
    return np.minimum((w < np.asarray(shifts)[:, None]).sum(axis=1), cap)


def bisect_eigenvalues(d: np.ndarray, e: np.ndarray, k: int | None = None) -> np.ndarray:
    """The k smallest eigenvalues of a symmetric tridiagonal by bisection."""
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    n = len(d)
    if k is None:
        k = n
    radius = 0.0
    for i in range(n):
        r = abs(d[i])
        if i > 0:
            r += abs(e[i - 1])
        if i < n - 1:
            r += abs(e[i])
        radius = max(radius, r)
    out = []
    for idx in range(k):
        a, b = -radius - 1.0, radius + 1.0
        for _ in range(200):
            m = 0.5 * (a + b)
            if sturm_count(d, e, m) <= idx:
                a = m
            else:
                b = m
            if b - a <= 1e-15 * max(1.0, abs(a) + abs(b)):
                break
        out.append(0.5 * (a + b))
    return np.array(out)


def hermitian_eigenvalues_bisect(h, k: int | None = None) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix via tridiagonal Sturm bisection.

    The unitary Hessenberg reduction of a Hermitian matrix is tridiagonal
    up to rounding; a diagonal phase rotation makes its subdiagonal
    ``|sub|``, so ``(diag.real, |sub|)`` has the same spectrum.  The
    reduction is not an eigensolver, and none of the package's code runs.
    """
    t = hessenberg(np.asarray(h, dtype=complex))
    return bisect_eigenvalues(t.diagonal().real, np.abs(t.diagonal(-1)), k)


def dense_assembly(spec) -> np.ndarray:
    """Dense matrix of a model by per-block placement, symmetrised as a validated dense input.

    Reads only the ``offdiag`` and ``onsite`` mappings: each stored block
    goes to (x, x') and its conjugate transpose to (x', x), on-site blocks
    to the diagonal, and the result is replaced by ``0.5 * (m + m^dagger)``.
    """
    n0 = spec.n0
    m = np.zeros((spec.dim, spec.dim), dtype=np.complex128)
    for (x, xp), b in spec.offdiag.items():
        r, c = (x - 1) * n0, (xp - 1) * n0
        m[r : r + n0, c : c + n0] = b
        m[c : c + n0, r : r + n0] = b.conj().T
    for x, b in spec.onsite.items():
        r = (x - 1) * n0
        m[r : r + n0, r : r + n0] = b
    m += m.conj().T
    m *= 0.5
    return m


def band_to_dense(h) -> np.ndarray:
    """Dense matrix of a banded operator: each band diagonal and its mirror.

    ``H[j + k, j] = band[k, j]`` below the diagonal and
    ``H[j, j + k] = conj(band[k, j])`` above it.  Reads only ``h.band``.
    """
    n = h.band.shape[1]
    m = np.zeros((n, n), dtype=np.complex128)
    j = np.arange(n)
    m[j, j] = h.band[0]
    for k in range(1, h.band.shape[0]):
        m[j[: n - k] + k, j[: n - k]] = h.band[k, : n - k]
        m[j[: n - k], j[: n - k] + k] = h.band[k, : n - k].conj()
    return m


def shifted_onsite(spec, c: float):
    """The model with ``c * identity`` added to every on-site block, built
    through :meth:`ModelSpec.from_arrays` from the model's stored arrays."""
    onsite = spec._onsite + c * np.eye(spec.n0)
    return ModelSpec.from_arrays(spec.length, spec.n0, spec.hopping_bands, onsite, spec.label)


def random_block(rng: np.random.Generator, n0: int, target_norm: float) -> np.ndarray:
    """One hopping block drawn and scaled on its own: the per-block reference
    for the batched draws of :func:`gapbound.fuzz.random_model`."""
    b = rng.normal(size=(n0, n0)) + 1j * rng.normal(size=(n0, n0))
    top = np.linalg.svd(b, compute_uv=False)[0]
    if top == 0.0:
        b = np.eye(n0, dtype=complex)
        top = 1.0
    return b * (target_norm / top)


def random_model_blocks(rng, size_range=(4, 40), n0_range=(1, 3), envelope_family=True):
    """The draws of :func:`gapbound.fuzz.random_model`, one block at a time.

    Returns ``(length, n0, hops, onsites, (cv, mu) or None, v0 or None)``
    with ``hops`` as ``(x, x', block)`` and ``onsites`` as ``(x, block)``
    lists, in the same random stream order as the package generator.
    """
    length = int(rng.integers(size_range[0], size_range[1] + 1))
    n0 = int(rng.integers(n0_range[0], n0_range[1] + 1))
    hops = []
    env = v0 = None
    if envelope_family:
        env = (float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.4, 1.5)))

        def allowed(d):
            return env[0] * math.exp(-env[1] * d)

        for x in range(1, length):
            for d in range(1, min(length - 1, 5) + 1):
                if x + d > length:
                    break
                if rng.random() < (0.9 if d == 1 else 0.4):
                    target = float(rng.uniform(0.1, 1.0)) * allowed(d)
                    hops.append((x, x + d, random_block(rng, n0, target)))
    else:
        v0 = float(rng.uniform(0.5, 2.0))
        for x in range(1, length):
            if rng.random() < 0.95:
                target = float(rng.uniform(0.1, 1.0)) * v0
                hops.append((x, x + 1, random_block(rng, n0, target)))
    if not hops:
        target = 0.5 * (allowed(1) if env is not None else v0)
        hops.append((1, 2, random_block(rng, n0, target)))
    onsites = []
    for x in range(1, length + 1):
        if rng.random() < 0.7:
            a = rng.normal(size=(n0, n0)) + 1j * rng.normal(size=(n0, n0))
            onsites.append((x, float(rng.uniform(0.0, 2.0)) * 0.5 * (a + a.conj().T)))
    return length, n0, hops, onsites, env, v0


def polyfit_decay_fit(p: np.ndarray, center: float) -> tuple:
    """``(xi_fit, intercept, r_squared, window)`` of the decay fit by ``np.polyfit``.

    The SVD least-squares line through ``ln p_x`` against ``|x - center|``
    over the sites with ``p_x >= 1e-13`` more than 10 sites from either
    edge, as the package fitted it before its closed form.
    """
    x = np.arange(1, p.size + 1, dtype=float)
    usable = (p >= 1e-13) & (x > 10) & (x <= p.size - 10)
    d = np.abs(x[usable] - center)
    y = np.log(p[usable])
    slope, intercept = np.polyfit(d, y, 1)
    resid = y - (slope * d + intercept)
    r_squared = 1.0 - float(np.sum(resid**2)) / float(np.sum((y - y.mean()) ** 2))
    return -1.0 / float(slope), float(intercept), r_squared, (float(d.min()), float(d.max()))


def partial_series(term, rtol: float = 1e-18, max_terms: int = 100000) -> float:
    """Sum term(k) for k = 0, 1, ... until terms drop below rtol * total."""
    total = 0.0
    for k in range(max_terms):
        t = term(k)
        total += t
        if abs(t) < rtol * max(total, 1.0):
            return total
    raise RuntimeError("series did not converge")


def c1_partial(cv: float, mu: float) -> float:
    """Coupling constant 4 cv sum (k+1)^2 exp(-mu k) by direct summation."""
    return 4.0 * cv * partial_series(lambda k: (k + 1) ** 2 * np.exp(-mu * k))


def envelope_coupling_partial(cv: float, mu: float) -> float:
    """Interior V_x for an exponential envelope: 4 cv sum_{r>=1} r^2 exp(-mu r)."""
    return 4.0 * cv * partial_series(lambda k: (k + 1) ** 2 * np.exp(-mu * (k + 1)))


def brute_tail(p: np.ndarray, mean: float, r: float) -> float:
    """Tail probability by explicit loop over integer sites."""
    total = 0.0
    for x0, px in enumerate(p, start=1):
        if abs(x0 - mean) >= r:
            total += px
    return total


def _ref_int(token: str, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ModelFormatError(line_no, f"{what} must be an integer, got {token!r}") from None


def _ref_float(token: str, line_no: int, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ModelFormatError(line_no, f"{what} must be a number, got {token!r}") from None


def _ref_finite(re: float, im: float, line_no: int):
    if not (math.isfinite(re) and math.isfinite(im)):
        raise ModelFormatError(
            line_no, f"real and imaginary parts must be finite, got {re!r} and {im!r}"
        )


def reference_parse_model(text: str):
    """The model-file format parsed one line at a time, checks in line order.

    The reference for :func:`gapbound.modelfile.parse_model`: blocks are
    filled entry by entry and handed to the ``(x, x', block)`` tuple
    constructor of :class:`gapbound.ModelSpec`.
    """
    length = None
    n0 = None
    label = ""
    onsite: dict[int, np.ndarray] = {}
    offdiag: dict[tuple[int, int], np.ndarray] = {}
    seen_onsite: set[tuple[int, int, int]] = set()
    seen_hop: set[tuple[int, int, int, int]] = set()

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        tag = tokens[0]

        if tag == "L":
            if length is not None:
                raise ModelFormatError(line_no, "duplicate L header")
            if len(tokens) != 2:
                raise ModelFormatError(line_no, "expected 'L <int>'")
            length = _ref_int(tokens[1], line_no, "L")
            if length < 1:
                raise ModelFormatError(line_no, f"L must be >= 1, got {length}")
        elif tag == "N0":
            if n0 is not None:
                raise ModelFormatError(line_no, "duplicate N0 header")
            if len(tokens) != 2:
                raise ModelFormatError(line_no, "expected 'N0 <int>'")
            n0 = _ref_int(tokens[1], line_no, "N0")
            if n0 < 1:
                raise ModelFormatError(line_no, f"N0 must be >= 1, got {n0}")
        elif tag == "label":
            label = line[len("label") :].strip()
        elif tag in ("V", "T"):
            if length is None or n0 is None:
                raise ModelFormatError(line_no, "L and N0 must be declared before entries")
            if tag == "V":
                if len(tokens) != 6:
                    raise ModelFormatError(line_no, "expected 'V <x> <i> <j> <re> <im>'")
                x = _ref_int(tokens[1], line_no, "x")
                i = _ref_int(tokens[2], line_no, "i")
                j = _ref_int(tokens[3], line_no, "j")
                re = _ref_float(tokens[4], line_no, "re")
                im = _ref_float(tokens[5], line_no, "im")
                if not 1 <= x <= length:
                    raise ModelFormatError(line_no, f"x={x} out of range 1..{length}")
                if not (1 <= i <= n0 and 1 <= j <= n0):
                    raise ModelFormatError(line_no, f"indices ({i},{j}) out of range 1..{n0}")
                if i > j:
                    raise ModelFormatError(
                        line_no, f"on-site entries require i <= j, got ({i},{j})"
                    )
                if (x, i, j) in seen_onsite:
                    raise ModelFormatError(line_no, f"duplicate on-site entry V {x} {i} {j}")
                seen_onsite.add((x, i, j))
                _ref_finite(re, im, line_no)
                if i == j:
                    if abs(im) > HERMITIAN_TOL:
                        raise ModelFormatError(
                            line_no,
                            f"diagonal on-site entry must be real within {HERMITIAN_TOL:g}, "
                            f"got imaginary part {im!r}",
                        )
                    im = 0.0
                block = onsite.setdefault(x, np.zeros((n0, n0), dtype=np.complex128))
                block[i - 1, j - 1] = complex(re, im)
                block[j - 1, i - 1] = complex(re, -im)
            else:
                if len(tokens) != 7:
                    raise ModelFormatError(line_no, "expected 'T <x> <x'> <i> <j> <re> <im>'")
                x = _ref_int(tokens[1], line_no, "x")
                xp = _ref_int(tokens[2], line_no, "x'")
                i = _ref_int(tokens[3], line_no, "i")
                j = _ref_int(tokens[4], line_no, "j")
                re = _ref_float(tokens[5], line_no, "re")
                im = _ref_float(tokens[6], line_no, "im")
                if not (1 <= x <= length and 1 <= xp <= length):
                    raise ModelFormatError(line_no, f"pair ({x},{xp}) out of range 1..{length}")
                if x >= xp:
                    raise ModelFormatError(line_no, f"hopping requires x < x', got ({x},{xp})")
                if not (1 <= i <= n0 and 1 <= j <= n0):
                    raise ModelFormatError(line_no, f"indices ({i},{j}) out of range 1..{n0}")
                if (x, xp, i, j) in seen_hop:
                    raise ModelFormatError(line_no, f"duplicate hopping entry T {x} {xp} {i} {j}")
                seen_hop.add((x, xp, i, j))
                _ref_finite(re, im, line_no)
                block = offdiag.setdefault((x, xp), np.zeros((n0, n0), dtype=np.complex128))
                block[i - 1, j - 1] = complex(re, im)
        else:
            raise ModelFormatError(line_no, f"unknown directive {tag!r}")

    if length is None or n0 is None:
        raise ModelFormatError(0, "model file must declare L and N0")
    return ModelSpec(
        length,
        n0,
        [(x, xp, b) for (x, xp), b in offdiag.items()],
        list(onsite.items()),
        label=label,
    )


def reference_format_model(spec) -> str:
    """The model-file text of a model, read one block entry at a time from
    the ``onsite`` and ``offdiag`` mappings: the reference for
    :func:`gapbound.modelfile.format_model`."""
    lines = [f"L {spec.length}", f"N0 {spec.n0}"]
    if spec.label:
        lines.append(f"label {spec.label}")
    for x in sorted(spec.onsite):
        b = spec.onsite[x]
        for i in range(spec.n0):
            for j in range(i, spec.n0):
                v = b[i, j]
                if v != 0:
                    lines.append(
                        f"V {x} {i + 1} {j + 1} {v.real:.17g} "
                        f"{0.0 if i == j else v.imag:.17g}"
                    )
    for (x, xp) in sorted(spec.offdiag):
        b = spec.offdiag[(x, xp)]
        for i in range(spec.n0):
            for j in range(spec.n0):
                v = b[i, j]
                if v != 0:
                    lines.append(f"T {x} {xp} {i + 1} {j + 1} {v.real:.17g} {v.imag:.17g}")
    return "\n".join(lines) + "\n"


def reference_hod_explicit(psi, spec, gvals) -> float:
    """<H_OD> summed one hopping distance at a time over the pairs with a
    nonzero block."""
    a = psi.reshape(spec.length, spec.n0)
    acc = 0.0
    for d, blocks in spec.hopping_bands.items():
        x0 = np.flatnonzero(blocks.any(axis=(1, 2)))
        dg = gvals[x0] - gvals[x0 + d]
        pair = np.einsum("mi,mij,mj->m", a[x0].conj(), blocks[x0], a[x0 + d]).real
        acc += 2.0 * float(np.sum(dg * dg * pair))
    return acc


def reference_g_expectations(psi0, spec, g, delta_e0) -> dict:
    """Every field of the complementary report, from ``psi0`` afresh.

    The commutator route forms ``[G, [G, H]]`` on the whole band, its
    diagonal row included, by two row-minus-column scalings.
    """
    from gapbound import assemble
    from gapbound.eigensolver import spectral_scale

    psi = np.asarray(psi0, dtype=np.complex128)
    p = (np.abs(psi.reshape(spec.length, spec.n0)) ** 2).sum(axis=1)
    gx = g.g
    mean_g = float(np.dot(gx, p))
    var_g = float(np.dot((gx - mean_g) ** 2, p))
    hod_explicit = reference_hod_explicit(psi, spec, gx)
    h = assemble(spec)
    band = h.band
    gfull = np.repeat(gx, spec.n0)
    rows = np.arange(band.shape[0])[:, None] + np.arange(h.n)
    pad = np.zeros(band.shape[0] - 1)
    g_row = np.concatenate((gfull, pad))[rows]
    comm = g_row * band - band * gfull
    comm2 = g_row * comm - comm * gfull
    psi_row = np.concatenate((psi, pad))[rows]
    lhs = delta_e0 * var_g
    rhs = abs(hod_explicit) / 2.0
    return {
        "mean_g": mean_g,
        "mean_g2": float(np.dot(gx * gx, p)),
        "var_g": var_g,
        "hod_explicit": hod_explicit,
        "hod_commutator": 2.0 * float(np.real(np.sum(psi_row.conj() * comm2 * psi))),
        "lhs": lhs,
        "rhs": rhs,
        "slack": rhs - lhs,
        "scale": spectral_scale(h) * max(1.0, float(np.max(np.abs(gx)))) ** 2,
    }


def reference_appendixB(spec, envelope, g, psi0, region) -> dict:
    """Every field of the Appendix-B report, from ``psi0`` afresh, by site loops."""
    r_inner, delta_r, center = region
    psi = np.asarray(psi0, dtype=np.complex128)
    p = (np.abs(psi.reshape(spec.length, spec.n0)) ** 2).sum(axis=1)
    gx = g.g
    q = math.exp(-envelope.mu)
    c1 = 4.0 * envelope.cv * (1.0 + q) / (1.0 - q) ** 3
    a = r_inner + delta_r / 3.0
    b = r_inner + 2.0 * delta_r / 3.0
    v_direct, v_piece = [], []
    for x in range(spec.length):
        v_direct.append(2.0 * sum(
            (gx[x] - gx[y]) ** 2 * envelope.cv * math.exp(-envelope.mu * abs(x - y))
            for y in range(spec.length)
        ))
        u = abs(x + 1 - center)
        v_piece.append(c1 * math.exp(-envelope.mu * (max(a - u, 0.0) + max(u - b, 0.0))))
    v_direct, v_piece = np.array(v_direct), np.array(v_piece)
    return {
        "hod_abs": abs(reference_hod_explicit(psi, spec, gx)),
        "bound_direct": float(np.dot(v_direct, p)),
        "bound_piecewise": float(np.dot(v_piece, p)),
        "pointwise_margin": float(np.min(v_piece - v_direct)),
        "c1": c1,
        "region": (float(r_inner), float(delta_r), float(center)),
    }
