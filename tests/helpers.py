"""Shared builders and independent oracles for the test suite.

Production evaluates the residual, its derivatives and Newton's matrix on
the m-fold lattice (``model._Lattice``: R = σ ∘ a + ½ K(a) a, no FFT), and
the evolution right-hand side as the multiplier -i σ(k, c)
(``model._multiplier``) plus the bilinear form Q from two stacked FFTs
(``model._products``).  The oracles here write each of them out on its own:
with ``SpectralField`` operators, the Zygmund-operator form of the
residual term by term, and the expanded residual, its directional
derivative and the evolution right-hand side in their earlier hand-written
forms (``reference_*``); through FFT products on the half-spectrum, the
residual and its directional derivative as production evaluated them
before the lattice (``fft_residual``, ``fft_gateaux``); products by direct
coefficient convolution; the quadratic terms' derivative and the residual
in exact rational arithmetic (``exact_gateaux_nonlinear``,
``exact_residual``); the Hölder seminorm and norm as the plain loop over
all lags and the loop over validated fields; and the commutator quotient
and sweep member by member through ``commutator_h`` and a norm on fields,
with ``sweep_members`` listing a sweep's members as Python scalars;
``as_fields`` is the one route by which a test reads a branch's profiles
or a trajectory's states as fields.
``reference_quadratic`` is Q on the half-spectrum with one transform per
factor and per product, the form the stacked kernel must reproduce bit
for bit;
``reference_synthesize``, ``reference_analyze`` and
``reference_product_transforms`` are the public ``np.fft`` calls whose
floats the bound pocketfft kernels must give at each site;
``reference_hilbert_by_quadrature`` and ``reference_zygmund_by_quadrature``
are the principal-value quadratures of H and Λ as two loops, one per
operator, with the node count as their argument;
``reference_rk4`` is the RK4 loop through ``reference_quadratic`` with
every stage allocating, which ``evolve`` must reproduce to roundoff;
``reference_jacobian`` is the closed-form Jacobian
with its index and weight arrays built on every call, gathered by fancy
indexing, which ``assemble_jacobian`` and Newton's bordered matrix
(``newton_matrix``, taken from Newton's own step) must reproduce bit for
bit; ``reference_newton`` is the Newton loop on validated fields, with
every residual through ``fft_residual`` and judged by the ℓ¹ norm of its
amplitudes, which the loop on the lattice matrix must reproduce to roundoff;
``reference_branch`` is the continuation with every step on all n lattice
modes, which the lattice that grows with the wave must reproduce to
roundoff.
``reference_simplicity`` and ``reference_shared_frequency`` are the scalar
simplicity scans of ``detect_bifurcations`` and ``continue_branch``;
``reference_kernel_dimension`` counts the small singular values of the
assembled flat-state Jacobian, the count ``kernel_dimension`` must give;
``reference_csv_body`` and ``reference_profile_rows`` are the CLI's
cell-by-cell CSV formatter and its per-state trajectory synthesis.
"""

from collections import Counter
from fractions import Fraction

import numpy as np

from oddwaves import (
    Branch,
    ConfigurationError,
    CosineSeries,
    ModelParams,
    SineSeries,
    SpectralField,
    assemble_jacobian,
    bifurcation,
    commutator_h,
    derivative,
    hilbert,
    holder_norm,
    model,
    multiply,
    zygmund,
)
from oddwaves.bifurcation import SIMPLE_RTOL, _NoConvergence, _SingularSystem
from oddwaves.holder import SweepResult, _default_grid
from oddwaves.model import _mfold_indices, _multiplier, _symbol_scale, critical_speed, symbol_at
from oddwaves.spectral import _amplitudes, _hat, _next_pow2


def cosine(k, amp=1.0, n=None):
    a = np.zeros((n or k) + 1)
    a[k] = amp
    return CosineSeries(a)


def sine(k, amp=1.0, n=None):
    b = np.zeros((n or k) + 1)
    b[k] = amp
    return SineSeries(b)


def random_field(rng, degree, even=False, mean=0.0, decay=1.0):
    k = np.arange(1, degree + 1, dtype=float)
    a = np.zeros(degree + 1)
    b = np.zeros(degree + 1)
    a[0] = mean
    a[1:] = rng.standard_normal(degree) / k ** decay
    if even:
        return CosineSeries(a)
    b[1:] = rng.standard_normal(degree) / k ** decay
    return SpectralField(a, b)


def random_even(rng, degree, **kw):
    return random_field(rng, degree, even=True, **kw)


def random_mfold_even(rng, m, degree):
    """Even profile supported on frequencies m, 2m, ... up to ``degree``."""
    a = np.zeros(degree + 1)
    idx = m * np.arange(1, degree // m + 1)
    a[idx] = rng.standard_normal(idx.size) / idx
    return CosineSeries(a)


def conv_product(f, g):
    """Exact product of two trigonometric polynomials by direct coefficient
    convolution (independent of the FFT path)."""
    n = f.degree + g.degree

    def complex_coeffs(h):
        c = np.zeros(2 * n + 1, dtype=complex)
        c[n] = h.a[0]
        for k in range(1, min(h.n_modes, n) + 1):
            c[n + k] = 0.5 * (h.a[k] - 1j * h.b[k])
            c[n - k] = 0.5 * (h.a[k] + 1j * h.b[k])
        return c

    full = np.convolve(complex_coeffs(f), complex_coeffs(g))
    mid = 2 * n
    a = np.zeros(n + 1)
    b = np.zeros(n + 1)
    a[0] = full[mid].real
    for k in range(1, n + 1):
        a[k] = 2.0 * full[mid + k].real
        b[k] = -2.0 * full[mid + k].imag
    return SpectralField(a, b)


def coeff_gap(f, g):
    """Largest coefficient difference between two fields."""
    n = max(f.n_modes, g.n_modes)
    fp, gp = f.pad_to(n), g.pad_to(n)
    return max(np.abs(fp.a - gp.a).max(), np.abs(fp.b - gp.b).max())


def residual_first_form(c, phi, p):
    """The residual assembled from the Zygmund-operator form,

        2cφ' + cα0 Λφ' + (1/ε){φ' + Hφ + (α0-β) Hφ''}
        + H[(Λφ)²] - ⟦H,φ⟧[Λφ] + (α0-β) ⟦H,φ⟧[Λ³φ],

    with the two commutators taken separately.
    """
    phi = _zero_mean(phi)
    g = p.alpha0 - p.beta
    d1 = derivative(phi, 1)
    lam = zygmund(phi)
    lam3 = zygmund(zygmund(lam))
    return (2.0 * c) * d1 + (c * p.alpha0) * zygmund(d1) \
        + (1.0 / p.epsilon) * (d1 + hilbert(phi) + g * hilbert(derivative(phi, 2))) \
        + hilbert(multiply(lam, lam)) \
        - commutator_h(phi, lam) \
        + g * commutator_h(phi, lam3)


# (ε, α0, β) at which the one-bracket forms are checked against the oracles
ORACLE_PARAMS = [ModelParams(0.5, 1.0, 0.5), ModelParams(1.0, 1.0, 1.0),
                 ModelParams(0.7, 2.0, -1.0)]


def _zero_mean(phi):
    a = phi.a.copy()
    a[0] = 0.0
    return CosineSeries(a)


def reference_residual(c, phi, p):
    """The residual in its expanded form, with five products:

        2cφ' + (cα0 + (α0-β)/ε) H[φ''] + (1/ε)(φ' + H[φ])
        + H[(Hφ')²] - ⟦H,φ⟧[Hφ'] - (α0-β) ⟦H,φ⟧[H∂³φ].
    """
    phi = _zero_mean(phi)
    g = p.alpha0 - p.beta
    d1 = derivative(phi, 1)
    hp1 = hilbert(d1)
    return (2.0 * c) * d1 \
        + (c * p.alpha0 + g / p.epsilon) * hilbert(derivative(phi, 2)) \
        + (1.0 / p.epsilon) * (d1 + hilbert(phi)) \
        + hilbert(multiply(hp1, hp1)) \
        - commutator_h(phi, hp1) \
        - g * commutator_h(phi, hilbert(derivative(phi, 3)))


def reference_gateaux(c, phi, h, p):
    """The derivative of ``reference_residual`` at φ in the direction h,
    written out term by term, with nine products."""
    phi, h = _zero_mean(phi), _zero_mean(h)
    g = p.alpha0 - p.beta
    hp1 = hilbert(derivative(phi, 1))
    hp3 = hilbert(derivative(phi, 3))
    dh1 = derivative(h, 1)
    hh1 = hilbert(dh1)
    hh3 = hilbert(derivative(h, 3))
    return (2.0 * c) * dh1 \
        + (c * p.alpha0 + g / p.epsilon) * hilbert(derivative(h, 2)) \
        + (1.0 / p.epsilon) * (dh1 + hilbert(h)) \
        + 2.0 * hilbert(multiply(hp1, hh1)) \
        - commutator_h(h, hp1) \
        - commutator_h(phi, hh1) \
        - g * commutator_h(h, hp3) \
        - g * commutator_h(phi, hh3)


def reference_rhs(f, p):
    """The evolution right-hand side with its bracket written out,

        (1/ε){f' + Hf + (α0-β) Hf''} + H[(Λf)²] - ⟦H,f⟧[Λf]
        + (α0-β) ⟦H,f⟧[Λ³f],

    truncated to f's modes and divided mode by mode by 2 + α0 k.
    """
    n = f.n_modes
    g = p.alpha0 - p.beta
    lam = zygmund(f)
    bracket = (1.0 / p.epsilon) * (derivative(f, 1) + hilbert(f)
                                   + g * hilbert(derivative(f, 2))) \
        + hilbert(multiply(lam, lam)) \
        - commutator_h(f, lam) \
        + g * commutator_h(f, zygmund(zygmund(lam)))
    bracket = bracket.truncate(n)
    mass = 2.0 + p.alpha0 * np.arange(n + 1)
    return SpectralField(bracket.a / mass, bracket.b / mass)


def reference_quadratic(u, v, p, n_out):
    """Q(u, v) = P2 - i P1 on the half-spectrum modes 0..n_out, with one
    transform per factor and per product: five public ``np.fft.irfft`` (u,
    Λu, Λv, w, Hw) and two ``np.fft.rfft`` calls on the product grid, in
    the arithmetic of ``model._products``.  Q has no modes above
    the product degree u.size + v.size - 2; they are returned as exact
    zeros, not as the roundoff the transforms leave on the grid's modes
    there."""
    g = p.alpha0 - p.beta
    m = _next_pow2(u.size + v.size + n_out)
    ku = np.arange(u.size, dtype=float)
    kv = np.arange(v.size, dtype=float)
    w = kv * v - g * kv ** 3 * v
    uu, lu, lv, ww, hw = (np.fft.irfft(x, m, norm="forward")
                          for x in (u, ku * u, kv * v, w, -1j * w))
    top = min(n_out, u.size + v.size - 2)
    inner = np.fft.rfft(lu * lv - uu * ww, norm="forward")[: top + 1]
    out = np.zeros(n_out + 1, dtype=complex)
    out[: top + 1] = np.fft.rfft(uu * hw, norm="forward")[: top + 1]
    out[1 : top + 1] -= 1j * inner[1:]
    return out


def _even_hat(phi):
    """The half-spectrum of an even field's cosine amplitudes, mean zeroed."""
    u = _hat(phi.a, np.zeros_like(phi.a))
    u[0] = 0.0
    return u


def fft_residual(c, phi, p):
    """R[c, φ] through FFT products, the path ``model.residual`` took before
    the lattice: -i σ(k, c) u + Q(u, u) on the half-spectrum modes 0..2N,
    with Q from ``reference_quadratic``.  Returns its sine series and the
    largest amplitude among the two terms summed into it, the scale of its
    roundoff."""
    u = _even_hat(phi)
    lin = _multiplier(u.size, c, p) * u
    r = reference_quadratic(u, u, p, 2 * (u.size - 1))
    scale = 2.0 * max(np.abs(r.view(float)).max(), np.abs(lin.view(float)).max())
    r[: u.size] += lin
    return SineSeries(_amplitudes(r)[1]), scale


def fft_gateaux(c, phi, h, p):
    """The derivative of ``fft_residual`` at φ in the direction h, as the
    FFT path formed it: -i σ(k, c) v + Q(u, v) + Q(v, u) on N_φ + N_h modes."""
    u, v = _even_hat(phi), _even_hat(h)
    n_out = u.size + v.size - 2
    r = reference_quadratic(u, v, p, n_out) + reference_quadratic(v, u, p, n_out)
    r[: v.size] += _multiplier(v.size, c, p) * v
    return SineSeries(_amplitudes(r)[1])


def reference_rk4(f, p, cfg, quadratic=reference_quadratic):
    """The amplitude pairs (a, b) that classical RK4 saves after step 0 when
    every stage and the combination allocate new arrays and Q is
    ``quadratic`` (the per-transform ``reference_quadratic`` by default):
    the loop ``evolution.evolve`` must reproduce to roundoff, with the same
    step, save rule, multiplier -i σ(k, 0) and divisor 2 + α0 k."""
    state = f.pad_to(cfg.n_modes)
    n_steps = max(1, int(round(cfg.t_final / cfg.dt)))
    dt = cfg.t_final / n_steps
    save_every = cfg.save_every or max(1, n_steps // 10)
    u = _hat(state.a, state.b)
    mult = _multiplier(u.size, 0.0, p)
    mass = 2.0 + p.alpha0 * np.arange(u.size)

    def rate(x):
        return (mult * x + quadratic(x, x, p, x.size - 1)) / mass

    saved = []
    for step in range(1, n_steps + 1):
        k1 = rate(u)
        k2 = rate(u + (0.5 * dt) * k1)
        k3 = rate(u + (0.5 * dt) * k2)
        k4 = rate(u + dt * k3)
        u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step % save_every == 0 or step == n_steps:
            saved.append(_amplitudes(u))
    return saved


def count_real_ffts(monkeypatch):
    """Count the calls of the real-FFT kernels ``model`` binds from
    ``spectral`` (``_irfft``, ``_rfft``) made from now on, as "irfft" and
    "rfft", in the returned ``Counter``."""
    counts = Counter()

    def counting(name, transform):
        def counted(*args, **kwargs):
            counts[name] += 1
            return transform(*args, **kwargs)
        return counted

    for name in ("irfft", "rfft"):
        kernel = "_" + name
        monkeypatch.setattr(model, kernel, counting(name, getattr(model, kernel)))
    return counts


def count_fields(monkeypatch):
    """The list that gets one entry per ``SpectralField`` built from now on."""
    built, init = [], SpectralField.__init__

    def counted(field, *args):
        built.append(1)
        init(field, *args)

    monkeypatch.setattr(SpectralField, "__init__", counted)
    return built


# The public np.fft calls that the bound kernels replaced, as references for
# the floats of each kernel site.

def reference_synthesize(a, b, m):
    """``spectral._synthesize`` through ``np.fft.irfft``."""
    n = min(a.shape[-1] - 1, m // 2 - 1)
    return np.fft.irfft(m * _hat(a[..., : n + 1], b[..., : n + 1]), m)


def reference_analyze(values):
    """``spectral._analyze`` through ``np.fft.rfft``."""
    m = values.shape[-1]
    a, b = _amplitudes(np.fft.rfft(values)[..., : m // 2])
    return a / m, b / m


def _reference_quadrature_lattice(f, nodes):
    """The node lattice of the principal-value quadratures at ``nodes``, a
    multiple of f's grid: the grid size, nodes per grid point, the node
    spacing h, the nodes u_j = -π + (j + 1/2) h, f at the half-offset
    points (l + 1/2) h, and the node indices."""
    m = f.grid_size
    assert nodes % m == 0
    ratio = nodes // m
    h = 2.0 * np.pi / nodes
    u = -np.pi + (np.arange(nodes) + 0.5) * h
    n = min(f.n_modes, nodes // 2 - 1)
    phase = np.exp(1j * np.arange(n + 1) * (np.pi / nodes))
    samples = np.fft.irfft(nodes * _hat(f.a[: n + 1], f.b[: n + 1]) * phase, nodes)
    return m, ratio, h, u, samples, np.arange(nodes)


def reference_hilbert_by_quadrature(f, nodes):
    """H[f] on f's grid through the cotangent-kernel principal value on
    ``nodes`` nodes, one loop of its own: the floats
    ``spectral.operators_by_quadrature`` must give bit for bit."""
    m, ratio, h, u, samples, j = _reference_quadrature_lattice(f, nodes)
    w = h / (2.0 * np.pi * np.tan(u / 2.0))
    out = np.empty(m)
    for i in range(m):
        idx = (i * ratio + nodes // 2 - 1 - j) % nodes
        out[i] = samples[idx] @ w
    return out


def reference_zygmund_by_quadrature(f, nodes):
    """Λ[f] on f's grid through the sin^{-2} difference-kernel principal
    value on ``nodes`` nodes, one loop of its own."""
    m, ratio, h, u, samples, j = _reference_quadrature_lattice(f, nodes)
    w = h / (4.0 * np.pi * np.sin(u / 2.0) ** 2)
    fx = f.values(m)
    out = np.empty(m)
    for i in range(m):
        idx = (i * ratio + nodes // 2 - 1 - j) % nodes
        out[i] = (fx[i] - samples[idx]) @ w
    return out


def reference_product_transforms(work):
    """``model._products`` through ``np.fft``, from the factor spectrum a
    call left in its ``_QuadraticWork``: the factor rows on the grid
    (``np.fft.irfft`` of ``work.spec``), the products Λu·Λv - u·w and u·Hw
    formed from them in the same arithmetic, and the product spectra
    (``np.fft.rfft`` of the products)."""
    grid = np.fft.irfft(work.spec, work.m, norm="forward")
    uu, lu, w, hw = grid
    products = np.array([lu * lu - uu * w, uu * hw])
    return grid, products, np.fft.rfft(products, norm="forward")


def newton_matrix(c, a, p, lattice):
    """The bordered matrix ``bifurcation._newton`` solves at the iterate
    (c, φ), φ's cosine amplitudes a (a_0 is ignored, at most mn modes) on
    a ``model._Lattice`` of (m, n, α0 - β): a copy of what Newton's own
    ``_lattice_jacobian`` call returns at its first step, so the matrix
    tested is the one Newton composes and solves."""
    alpha = model._on_lattice(a, lattice)
    seen = []
    compose = bifurcation._lattice_jacobian

    def record(*args, **kw):
        jac = compose(*args, **kw)
        if not seen:
            seen.append(jac.copy())
        return jac

    bifurcation._lattice_jacobian = record
    try:
        bifurcation._newton(c, alpha, p, 0.0, 1, lattice)   # tol 0: never accepted
    except (_NoConvergence, _SingularSystem):
        pass
    finally:
        bifurcation._lattice_jacobian = compose
    return seen[0]


def reference_jacobian(c, a, p, m, n, speed_column=False):
    """The closed-form m-fold Jacobian with its index and weight arrays
    built inside every call and the amplitudes gathered by index arrays:
    the form the assembler on the strided views of ``model._Lattice``
    (``assemble_jacobian``, ``newton_matrix``) must reproduce bit for
    bit."""
    g = p.alpha0 - p.beta
    mid = 2 * m * n
    top = min(a.size - 1, m * n)
    amp = np.zeros(2 * mid + 1)              # a_l sits at amp[mid + l]
    amp[mid + 1 : mid + top + 1] = a[1 : top + 1]
    amp[mid - top : mid] = a[top:0:-1]
    k = m * np.arange(1, n + 1)
    kf = k.astype(float)
    total = k[:, None] + k                   # k' + k
    diff = k[:, None] - k                    # k' - k
    d = diff.astype(float)
    lag = np.abs(d)
    jac = amp[mid + total] * (kf * (total - 1) + g * kf ** 3)
    # (d - |d|) / 2 is k' - k where k' < k and 0 elsewhere
    jac += amp[mid + diff] * (kf * lag + 0.5 * (d - lag) * (1.0 - g * d * d))
    sigma = (-(2.0 * c + 1.0 / p.epsilon) * kf + 1.0 / p.epsilon
             - (c * p.alpha0 + g / p.epsilon) * kf * kf)
    jac.flat[:: n + 1] += sigma
    if speed_column:
        jac[:, 0] = (-2.0 * kf - p.alpha0 * kf * kf) * amp[mid + k]
    return jac


def reference_newton(c, alpha, p, tol, max_iter, lattice, monotone=False):
    """``bifurcation._newton`` with every iterate built as a ``CosineSeries``
    and every residual as the field of ``fft_residual`` (FFT products),
    whose Σ|a_k| + |b_k| judges convergence and whose sine amplitudes are
    the Newton right-hand side.  It writes the iterates
    into ``alpha``, as ``_newton`` does, and when ``monotone`` stalls at
    the first iterate whose norm does not fall, as ``_newton`` does.  The
    lattice loop must give the
    same iterations and stalls, with c, φ and the residual norm equal to
    roundoff.  ``lattice`` is the ``_Lattice`` of the step; only its m and
    n are read, and the Jacobian is the closed form
    (``reference_jacobian``)."""
    m, n = lattice.m, lattice.n
    rows = _mfold_indices(m, n)
    last = np.inf
    for it in range(max_iter + 1):
        a = np.zeros(m * n + 1)
        a[rows] = alpha
        phi = CosineSeries(a)
        res, _ = fft_residual(c, phi, p)
        rnorm = np.abs(res.a).sum() + np.abs(res.b).sum()
        if rnorm < tol:
            return c, rnorm, it
        if it == max_iter or (monotone and rnorm >= last):
            raise _NoConvergence(rnorm, it)
        last = rnorm
        jac = reference_jacobian(c, phi.a, p, m, n, speed_column=True)
        try:
            delta = np.linalg.solve(jac, -res.b[rows])
        except np.linalg.LinAlgError as exc:
            raise _SingularSystem(str(exc), it + 1) from exc
        if not np.isfinite(delta).all():
            raise _SingularSystem("non-finite Newton update", it + 1)
        c = c + delta[0]
        alpha[1:] += delta[1:]
    raise AssertionError("unreachable")


def reference_branch(m, p, s_max, n=bifurcation.DEFAULT_TRUNCATION, tol=bifurcation.DEFAULT_TOL,
                     max_iter=bifurcation.DEFAULT_MAX_ITER, *,
                     step_cap=bifurcation.DEFAULT_STEP_CAP):
    """``continue_branch`` with every step solved on the one lattice of all
    n modes: the fixed-n loop that the lattice growing from
    ``START_MODES`` must reproduce, with the same steps and the same stop
    and c and α equal to roundoff.  Its arguments are the branch's, taken
    as valid; it refuses no start and raises on no singular system."""
    c = critical_speed(m, p)
    alpha = np.zeros(n)
    points = [bifurcation.BranchPoint(s=0.0, c=c, alpha=alpha, residual_norm=0.0,
                                      newton_iters=0)]
    failure = None
    s_abs, step = 0.0, step_cap / 10.0
    lattice = model._Lattice(m, n, p.alpha0 - p.beta)
    while s_max - s_abs > 1e-15:
        step = min(step, step_cap, s_max - s_abs)
        trial = alpha.copy()
        trial[0] = s_abs + step
        try:
            c_new, rnorm, iters = bifurcation._newton(c, trial, p, tol, max_iter, lattice)
        except _NoConvergence as exc:
            failure = (f"Newton did not converge within {max_iter} iterations at "
                       f"s = {trial[0]:.6g} on {n} lattice modes (residual "
                       f"{exc.residual_norm:.3e}) after {exc.solves} linear solves; "
                       f"branch truncated at |s| = {s_abs:.6g}")
            break
        c, alpha = c_new, trial
        s_abs += step
        points.append(bifurcation.BranchPoint(s=trial[0], c=c, alpha=alpha,
                                              residual_norm=rnorm, newton_iters=iters))
        step = min(step * bifurcation.DEFAULT_STEP_GROWTH, step_cap)
    return Branch(m=m, points=points, modes_used=n, failure=failure)


def reference_simplicity(p, k_max, n_scan, rel_tol=SIMPLE_RTOL):
    """The ``simple`` flags of ``detect_bifurcations`` from the scalar loop:
    c_k is simple when no other frequency j <= n_scan has a multiplier
    below rel_tol times its terms' natural size."""
    n_scan = max(int(n_scan), int(k_max) + 1)
    flags = []
    for k in range(1, int(k_max) + 1):
        ck = critical_speed(k, p)
        flags.append(all(abs(symbol_at(j, ck, p)) > rel_tol * _symbol_scale(j, ck, p)
                         for j in range(1, n_scan + 1) if j != k))
    return flags


def reference_shared_frequency(m, p, n):
    """The first frequency mj, j = 2..n, whose multiplier the scalar loop
    finds vanishing at c_m (``continue_branch`` refuses the start), or
    None."""
    c0 = critical_speed(m, p)
    for j in range(2, n + 1):
        if abs(symbol_at(m * j, c0, p)) <= SIMPLE_RTOL * _symbol_scale(m * j, c0, p):
            return m * j
    return None


def reference_kernel_dimension(c, p, m, n):
    """The kernel dimension of the flat-state linearization on the m-fold
    basis by SVD of the assembled n × n matrix: the number of singular
    values below 1e-8 times the largest (all n when the matrix is zero)."""
    flat = CosineSeries(np.zeros(m * n + 1))
    svals = np.linalg.svd(assemble_jacobian(c, flat, p, n, m), compute_uv=False)
    if svals[0] == 0.0:
        return n
    return int(np.count_nonzero(svals < 1e-8 * svals[0]))


def _fmt(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def reference_csv_body(header, rows):
    """The CLI's CSV body with one type test per cell: floats (numpy ones
    too) as the ``repr`` of the Python float, anything else as ``str``."""
    lines = [",".join(header)]
    lines += [",".join(_fmt(cell) for cell in row) for row in rows]
    return "\n".join(lines) + "\n"


def reference_profile_rows(labels, fields):
    """Rows label, f(x_0), ..., f(x_{M-1}) of ``trajectory.csv``, one
    ``values(grid)`` synthesis per field."""
    grid = fields[0].grid_size
    return grid, [[label] + f.values(grid).tolist() for label, f in zip(labels, fields)]


def relative_gap(f, g):
    """Largest coefficient difference between two fields, relative to the
    largest coefficient of ``g``."""
    return coeff_gap(f, g) / max(np.abs(g.a).max(), np.abs(g.b).max())


def exact_gateaux_nonlinear(a, k, g):
    """Sine amplitudes of the quadratic terms' derivative at the even profile
    with cosine amplitudes ``a``, in the direction cos(kx), with g = α0 - β.
    Exact rational arithmetic (product-to-sum formulas, no FFT, no
    roundoff); returns a dict frequency -> Fraction.

    Series are dicts frequency -> [cos amplitude, sin amplitude].
    """
    half = Fraction(1, 2)

    def lin(*terms):
        out = {}
        for coef, ser in terms:
            for j, (c, s) in ser.items():
                acc = out.setdefault(j, [Fraction(0), Fraction(0)])
                acc[0] += coef * c
                acc[1] += coef * s
        return out

    def hil(ser):
        return {j: [-s, c] for j, (c, s) in ser.items() if j}

    def der(ser, order=1):
        for _ in range(order):
            ser = {j: [j * s, -j * c] for j, (c, s) in ser.items()}
        return ser

    def mul(f, h):
        out = {}
        for i, (c1, s1) in f.items():
            for j, (c2, s2) in h.items():
                for freq, c, s in ((i + j, c1 * c2 - s1 * s2, c1 * s2 + s1 * c2),
                                   (i - j, c1 * c2 + s1 * s2, s1 * c2 - c1 * s2)):
                    if freq < 0:
                        freq, s = -freq, -s
                    acc = out.setdefault(freq, [Fraction(0), Fraction(0)])
                    acc[0] += half * c
                    acc[1] += half * s
        return out

    def comm(f, h):
        return lin((1, hil(mul(f, h))), (-1, mul(f, hil(h))))

    g = Fraction(g)
    phi = {j: [Fraction(float(a[j])), Fraction(0)] for j in range(1, len(a)) if a[j]}
    h = {k: [Fraction(1), Fraction(0)]}
    hp1, hp3 = hil(der(phi)), hil(der(phi, 3))
    hh1, hh3 = hil(der(h)), hil(der(h, 3))
    out = lin((2, hil(mul(hp1, hh1))), (-1, comm(h, hp1)), (-1, comm(phi, hh1)),
              (-g, comm(h, hp3)), (-g, comm(phi, hh3)))
    return {j: s for j, (_, s) in out.items()}


def exact_residual(c, a, p):
    """Sine amplitudes of R[c, φ] at the even profile with cosine amplitudes
    ``a``, as a dict frequency -> Fraction: σ ∘ a + ½ Σ_k a_k col_k, with
    col_k the quadratic terms' derivative in the direction cos(kx) from
    ``exact_gateaux_nonlinear`` (Euler's identity for the quadratic part).
    Exact rational arithmetic on the float inputs; σ(k, c) enters as the
    float ``symbol_at`` gives."""
    half = Fraction(1, 2)
    out = {}
    for k in range(1, len(a)):
        if not a[k]:
            continue
        ak = Fraction(float(a[k]))
        out[k] = out.get(k, Fraction(0)) + Fraction(symbol_at(k, c, p)) * ak
        for j, s in exact_gateaux_nonlinear(a, k, p.alpha0 - p.beta).items():
            if j:                                # sin(0x) = 0
                out[j] = out.get(j, Fraction(0)) + half * ak * s
    return out


def reference_seminorm(values, alpha):
    """The plain lag loop with ``np.roll`` and no early stop: the slow path
    ``holder.holder_seminorm`` must reproduce bit for bit on finite input."""
    vals = np.asarray(values, dtype=float)
    m = vals.size
    best = 0.0
    for lag in range(1, m // 2 + 1):
        dist = 2.0 * np.pi * lag / m
        gap = np.abs(np.roll(vals, -lag) - vals).max()
        best = max(best, gap / dist ** alpha)
    return float(best)


def reference_holder_norm(f, k, alpha, grid_size=4096):
    """The C^{k,α} norm through validated ``SpectralField`` derivatives and
    ``values``, with ``reference_seminorm``: the slow path
    ``holder.holder_norm`` must reproduce bit for bit."""
    if grid_size < max(4, 2 * f.degree + 2):
        raise ConfigurationError("grid does not resolve the field")
    total = 0.0
    g = f
    for level in range(k + 1):
        vals = g.values(grid_size)
        total += float(np.abs(vals).max())
        if level < k:
            g = derivative(g, 1)
    return total + reference_seminorm(vals, alpha)


def sweep_field(rng, degree):
    """A field as ``holder.commutator_sweep`` draws it: standard normal
    cosine, then sine amplitudes on modes 1..degree, mean zero."""
    a = np.zeros(degree + 1)
    b = np.zeros(degree + 1)
    a[1:] = rng.standard_normal(degree)
    b[1:] = rng.standard_normal(degree)
    return SpectralField(a, b)


def reference_commutator_ratio(a, b, alpha, grid_size=4096, norm=holder_norm):
    """The commutator quotient through validated fields:
    ``commutator_h(a, derivative(b, 1))`` and ``norm`` (a function with the
    signature of ``holder_norm``)."""
    den = norm(a, 2, alpha, grid_size) * norm(b, 1, alpha, grid_size)
    if den == 0.0:
        raise ConfigurationError("commutator_ratio needs nonzero a and b")
    theta = commutator_h(a, derivative(b, 1))
    return float(norm(theta, 1, alpha, grid_size) / den)


def reference_commutator_sweep(ensemble, max_degree, alpha=0.5, seed=1234,
                               grid_size=None, norm=holder_norm):
    """``commutator_sweep`` one member at a time through
    ``reference_commutator_ratio``, by default on the sweep's grid,
    ``holder._default_grid(max_degree)``."""
    if grid_size is None:
        grid_size = _default_grid(max_degree)
    seeds = range(int(seed) * 100_000, int(seed) * 100_000 + ensemble)
    members = []
    for member_seed in seeds:
        rng = np.random.default_rng(member_seed)
        da = int(rng.integers(1, max_degree + 1))
        db = int(rng.integers(1, max_degree + 1))
        members.append((da, db, reference_commutator_ratio(
            sweep_field(rng, da), sweep_field(rng, db), alpha, grid_size, norm)))
    deg_a, deg_b, ratios = zip(*members)
    return SweepResult(max_degree=max_degree, seeds=seeds, degree_a=np.array(deg_a),
                       degree_b=np.array(deg_b), ratios=np.array(ratios))


def no_climb(table, kinds, alpha):
    """A stand-in for ``holder._refine`` that climbs no candidate, so each
    Hölder norm is its grid part."""
    return [np.full(rows.size, -np.inf) for rows, *_ in kinds]


def sweep_members(res):
    """Each member of a ``SweepResult`` as (seed, degree_a, degree_b,
    ratio), Python scalars."""
    return list(zip(res.seeds, res.degree_a.tolist(), res.degree_b.tolist(),
                    res.ratios.tolist()))


def as_fields(result):
    """The profiles of a ``Branch``'s points (``Branch.profile``) or the
    saved states of a ``Trajectory`` (its amplitude rows), as fields in
    order."""
    if isinstance(result, Branch):
        return [result.profile(i) for i in range(len(result.points))]
    return [SpectralField(a, b) for a, b in zip(result.a, result.b)]
