"""End-to-end frequency-domain analysis of synthetic chromatograms.

Generates a two-level dataset with drifting bands, transforms the rows,
fits the complex linear model, tests the factor by permutation, extracts a
component model of the effect and brings loadings and effect traces back
to the time domain.  SVG plots land in ./demo_output/.
"""

import os

import numpy as np

from fftasca import (
    SynthConfig,
    default_components,
    effect_to_time,
    emit_svg,
    encode,
    fit,
    generate,
    loadings_to_time,
    permutation_test,
    real_scores,
    sca_fit,
    transform_rows,
)

out_dir = "demo_output"
os.makedirs(out_dir, exist_ok=True)

config = SynthConfig(n_acquisitions=2000, n_peaks=8, n_significant=4,
                     jitter_max=15, effect_size=7.0, seed=11)
data = generate(config)
print(f"{data.x_time.shape[0]} samples x {data.x_time.shape[1]} acquisitions, "
      f"max jitter {config.jitter_max}")

dmatrix = encode(data.design)
spectra = transform_rows(data.x_time.astype(complex))

table = permutation_test(spectra, dmatrix, n_permutations=999, seed=3)
print(table.to_text())

effect = fit(spectra, dmatrix)
# the fit keeps one distinct row per level of the effect; the SVD runs on those rows only
levels, rows = effect.levels["group"], effect.distinct_rows("group")
n_comp = default_components(levels, cap=max(effect.dof["group"], 1), rows=rows)
model = sca_fit(levels, effect.residuals, n_comp, term="group", rows=rows)
print(f"component model: {n_comp} component(s), "
      f"explained ssq {model.explained_ssq.round(1)}")

scores = real_scores(model)
groups = {"level 0": (np.arange(5, dtype=float), scores[:5, 0]),
          "level 1": (np.arange(5, 10, dtype=float), scores[5:, 0])}
with open(os.path.join(out_dir, "scores.svg"), "w", encoding="utf-8") as fh:
    fh.write(emit_svg(groups, kind="scatter", title="factor scores",
                      x_label="sample", y_label="component 1"))

view = loadings_to_time(model)
print(f"loading back-transform imaginary residue: {view.imag_residue:.2e}")
with open(os.path.join(out_dir, "loading_time.svg"), "w", encoding="utf-8") as fh:
    fh.write(emit_svg({"component 1": view.values[:, 0]}, kind="line",
                      title="time-domain loading", x_label="acquisition",
                      y_label="loading"))

# one back-transformed row per level; samples 0-4 are level 0, samples 5-9 level 1
traces = effect_to_time(effect, "group").values
level_traces = {"level 0": traces[rows.inverse[0]], "level 1": traces[rows.inverse[5]]}
with open(os.path.join(out_dir, "effect_time.svg"), "w", encoding="utf-8") as fh:
    fh.write(emit_svg(level_traces, kind="line", title="time-domain effect",
                      x_label="acquisition", y_label="intensity"))

print(f"wrote scores.svg, loading_time.svg, effect_time.svg to {out_dir}/")
