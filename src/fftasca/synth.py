"""Synthetic multi-sample chromatograms with designed effects and drift.

Each sample is a sum of Gaussian elution bands plus white acquisition
noise.  A two-level factor separates the samples; the first
``n_significant`` peaks carry a level-dependent amplitude shift on top of
a rank-two correlated amplitude perturbation shared by those peaks, while
the remaining peaks vary independently of the level.  Per-sample integer
"jitter" shifts each band along the acquisition axis without ever
reordering the bands.

All between-sample randomness scales with ``noise_sd``: the amplitude
perturbation standard deviation is ``AMP_SD_RATIO * noise_sd``, so a
configuration with zero noise, zero jitter and zero effect reproduces one
deterministic trace in every row.

``effect_size`` is calibrated as an approximate latent z-score: the level
shift is chosen so the noncentrality of the drift-free time-domain F-test
equals ``effect_size`` squared, i.e. the expected evidence at zero jitter
matches the requested z.  The calibration uses the usual noncentral-F
identification and is approximate, not a simulation loop.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .design import DesignSpec, Factor, encode
from .errors import ConfigInvalid, DomainError, NonFiniteResult
from .glm import permutation_test
from .spectral import transform_rows

__all__ = [
    "SynthConfig",
    "PeakTruth",
    "SynthDataset",
    "JitterTrial",
    "generate",
    "jitter_experiment",
    "p_to_z",
]

# between-sample amplitude spread relative to the acquisition noise
AMP_SD_RATIO = 5.0


@dataclass(frozen=True)
class SynthConfig:
    """Generator settings; defaults give 10 samples of 5000 acquisitions
    with ten bands of width 4*sigma = 20, five of them level-dependent."""

    n_acquisitions: int = 5000
    n_peaks: int = 10
    n_significant: int = 5
    peak_sigma: float = 5.0
    jitter_max: int = 0
    replicates_per_level: int = 5
    effect_size: float = 3.0
    noise_sd: float = None
    seed: int = 0

    def validate(self):
        if self.n_acquisitions < 1:
            raise ConfigInvalid("n_acquisitions must be positive")
        if not (0 <= self.n_significant <= self.n_peaks):
            raise ConfigInvalid("n_significant must lie in [0, n_peaks]")
        if not (0 <= self.jitter_max <= 50):
            raise ConfigInvalid("jitter_max must lie in [0, 50] acquisitions")
        if self.replicates_per_level < 1:
            raise ConfigInvalid("replicates_per_level must be positive")
        if self.peak_sigma <= 0:
            raise ConfigInvalid("peak_sigma must be positive")
        if not math.isfinite(self.effect_size):
            raise ConfigInvalid("effect_size must be finite")
        if self.noise_sd is not None and not 0 <= self.noise_sd < math.inf:
            raise ConfigInvalid("noise_sd must be finite and not negative")
        if self.n_peaks == 0 and self.noise_sd is None:
            raise ConfigInvalid("n_peaks = 0 needs noise_sd: its default is 1 % of the "
                                "tallest band")
        spacing = self.n_acquisitions / (self.n_peaks + 1)
        if spacing <= 2 * (4 * self.peak_sigma + self.jitter_max):
            raise ConfigInvalid(
                "peaks too dense: spacing must exceed twice (4*sigma + jitter_max) "
                "so drift can never reorder the bands"
            )


@dataclass(frozen=True)
class PeakTruth:
    center: int
    sigma: float
    significant: bool
    level_means: tuple  # mean amplitude per factor level


@dataclass(frozen=True)
class SynthDataset:
    x_time: np.ndarray
    design: DesignSpec
    truth: tuple
    applied_jitter: np.ndarray
    noise_sd: float

    @property
    def sample_ids(self):
        return tuple(f"s{i:03d}" for i in range(self.x_time.shape[0]))


def _peak_centers(config):
    spacing = config.n_acquisitions / (config.n_peaks + 1)
    return np.array([int(round(spacing * (p + 1))) for p in range(config.n_peaks)])


def _level_shift(config, noise_sd):
    """Amplitude shift giving the requested latent z at zero jitter.

    Identifies effect_size**2 with the F-test noncentrality
    ``SS_effect / (SS_residual / dof_residual)`` expected for this
    configuration, then solves for the per-peak shift.  A shift past the
    floating-point range is ``inf``.
    """
    if config.n_significant == 0 or config.effect_size == 0 or noise_sd == 0:
        return 0.0
    n = 2 * config.replicates_per_level
    gauss_ssq = config.peak_sigma * math.sqrt(math.pi)  # ssq of a unit band
    amp_sd = AMP_SD_RATIO * noise_sd
    try:
        resid_msq = (
            n * config.n_acquisitions * noise_sd**2
            + n * config.n_peaks * amp_sd**2 * gauss_ssq
        ) / max(n - 2, 1)
        shift_sq = 4.0 * config.effect_size**2 * resid_msq / (
            n * gauss_ssq * config.n_significant
        )
    except OverflowError:
        return math.inf
    return math.sqrt(shift_sq)


@np.errstate(over="ignore", invalid="ignore")
def generate(config):
    """Generate one dataset; identical config and seed give identical bits.

    Raises NonFiniteResult when ``effect_size`` or ``noise_sd`` puts the
    chromatograms past the floating-point range.
    """
    config.validate()
    rng = np.random.default_rng(np.random.SeedSequence(int(config.seed)))
    n = 2 * config.replicates_per_level
    m = config.n_acquisitions
    centers = _peak_centers(config)
    significant = np.zeros(config.n_peaks, dtype=bool)
    significant[: config.n_significant] = True

    base = rng.uniform(5.0, 10.0, size=config.n_peaks)
    if config.noise_sd is None:
        sig_base = base[significant] if config.n_significant else base
        noise_sd = 0.01 * float(np.max(sig_base))
    else:
        noise_sd = float(config.noise_sd)
    amp_sd = AMP_SD_RATIO * noise_sd
    shift = _level_shift(config, noise_sd)

    labels = np.repeat([0, 1], config.replicates_per_level)
    signs = np.where(labels == 0, -0.5, 0.5)

    amplitudes = np.tile(base, (n, 1))
    if config.n_significant:
        raw = rng.normal(size=(config.n_significant, 2))
        norms = np.linalg.norm(raw, axis=1, keepdims=True)
        loadings = amp_sd * raw / np.where(norms == 0, 1.0, norms)
        latent = rng.normal(size=(n, 2))
        amplitudes[:, significant] += latent @ loadings.T
        amplitudes[:, significant] += np.outer(signs, np.full(config.n_significant, shift))
    n_other = config.n_peaks - config.n_significant
    if n_other:
        amplitudes[:, ~significant] += amp_sd * rng.normal(size=(n, n_other))

    jitter = np.zeros((n, config.n_peaks), dtype=int)
    if config.jitter_max > 0:
        jitter = rng.integers(0, config.jitter_max + 1, size=(n, config.n_peaks))
        # rejection-resample any row whose shifted centers are not strictly
        # increasing; the spacing invariant guarantees this terminates
        while True:
            shifted = centers[None, :] + jitter
            bad = np.flatnonzero((np.diff(shifted, axis=1) <= 0).any(axis=1))
            if bad.size == 0:
                break
            jitter[bad] = rng.integers(0, config.jitter_max + 1,
                                       size=(bad.size, config.n_peaks))

    t = np.arange(m, dtype=float)
    x = np.zeros((n, m))
    denom = 2.0 * config.peak_sigma**2
    for p in range(config.n_peaks):
        offsets = t[None, :] - (centers[p] + jitter[:, p])[:, None]
        x += amplitudes[:, p, None] * np.exp(-(offsets**2) / denom)
    if noise_sd > 0:
        x += noise_sd * rng.normal(size=(n, m))
    if not np.isfinite(x).all():
        raise NonFiniteResult("effect_size or noise_sd puts the generated chromatograms "
                              "past the floating-point range")

    truth = []
    for p in range(config.n_peaks):
        if significant[p]:
            means = (base[p] - shift / 2.0, base[p] + shift / 2.0)
        else:
            means = (base[p], base[p])
        truth.append(PeakTruth(center=int(centers[p]), sigma=config.peak_sigma,
                               significant=bool(significant[p]), level_means=means))

    factor = Factor.from_labels("group", labels,
                                level_names={0: "level0", 1: "level1"})
    return SynthDataset(
        x_time=x,
        design=DesignSpec(factors=(factor,)),
        truth=tuple(truth),
        applied_jitter=jitter,
        noise_sd=noise_sd,
    )


# Cephes ndtri (Moshier 1989, *Methods and Programs for Mathematical
# Functions*), the algorithm of ``scipy.special.ndtri``: coefficients and
# operation order are Cephes' own, and the scalar ``math`` functions keep
# every result bit-identical to it.  The Q tables leave out their leading
# coefficient 1, as Cephes does.
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242
# |y - 1/2| <= 3/8
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
# sqrt(-2 log y) in [2, 8)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
# sqrt(-2 log y) in [8, 64]
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x, coef):
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y0):
    """Standard normal quantile of ``y0`` in [0, 1]."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    y, upper = y0, False
    if y > 1.0 - _EXP_M2:
        y, upper = 1.0 - y, True
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, (1.0, *_Q0)))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    p, q = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)
    x = x0 - z * _polevl(z, p) / _polevl(z, (1.0, *q))
    return x if upper else -x


def p_to_z(p):
    """Upper-tail normal quantile of ``1 - p`` for ``p`` in (0, 1]."""
    p = float(p)
    if not (0.0 < p <= 1.0):
        raise DomainError(f"p must lie in (0, 1], got {p}")
    return -_ndtri(p)


@dataclass(frozen=True)
class JitterTrial:
    jitter: int
    trial: int
    z_time: float
    z_freq: float


def _trial_seed(master_seed, jitter, trial):
    ss = np.random.SeedSequence(entropy=int(master_seed),
                                spawn_key=(int(jitter), int(trial)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def jitter_experiment(config, jitter_levels, trials, n_permutations=200, seed=0):
    """Drift-sensitivity comparison of time- versus frequency-domain tests.

    For every jitter level and trial a fresh dataset is generated and the
    single factor is permutation-tested twice: once on the raw time matrix
    and once on the bin-magnitude matrix of the row spectra.  Magnitudes
    are what make the frequency representation insensitive to band drift;
    the full complex spectrum carries the drift in its phases and would
    reproduce the time-domain statistic exactly.  Both tests of a trial
    draw the same permutation stream, and each trial's generator and
    permutation seeds derive only from (seed, jitter, trial), so layouts
    are reproducible and trials are independent.

    Returns a list of JitterTrial rows in (jitter, trial) order.
    """
    results = []
    for jitter in jitter_levels:
        for trial in range(trials):
            cfg = replace(config, jitter_max=int(jitter),
                          seed=_trial_seed(seed, jitter, trial))
            data = generate(cfg)
            dmatrix = encode(data.design)
            perm_seed = _trial_seed(seed + 1, jitter, trial)
            table_time = permutation_test(
                data.x_time, dmatrix, n_permutations=n_permutations, seed=perm_seed
            )
            table_freq = permutation_test(
                np.abs(transform_rows(data.x_time)), dmatrix,
                n_permutations=n_permutations, seed=perm_seed,
            )
            results.append(JitterTrial(
                jitter=int(jitter),
                trial=trial,
                z_time=p_to_z(table_time.row("group").p_value),
                z_freq=p_to_z(table_freq.row("group").p_value),
            ))
    return results
