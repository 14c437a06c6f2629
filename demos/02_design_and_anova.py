"""Design encoding and the permutation ANOVA table.

Builds a balanced two-factor design with an interaction, shows the
sum-to-zero coding and the orthogonal block structure, fits the linear
model and prints the permutation-test table.
"""

import numpy as np

from fftasca import DesignSpec, Factor, encode, fit, is_balanced, permutation_test
from fftasca.linalg import ssq

rng = np.random.default_rng(1)

temperature = Factor.from_labels("temperature", [0] * 6 + [1] * 6)
column_age = Factor.from_labels("column_age", ([0] * 3 + [1] * 3) * 2)
spec = DesignSpec(factors=(temperature, column_age), interactions=((0, 1),))
dmatrix = encode(spec)

print("coding matrix (12 samples x 4 columns):")
print(dmatrix.matrix.astype(int))
print("terms:", dmatrix.terms, " dof:", dmatrix.dof)
print("balanced design:", is_balanced(spec))

gram = dmatrix.matrix.T @ dmatrix.matrix
print("D^T D is diagonal for balanced data:")
print(gram.astype(int))

# Response: 40 variables, a real temperature effect, no column-age effect.
x = rng.normal(size=(12, 40))
x[np.array(temperature.labels) == 1] += 0.9
x = x.astype(complex)

decomposition = fit(x, dmatrix)
explained = {term: ssq(decomposition.effect(term)) for term in decomposition.levels}
print("\neffect sums of squares:", {k: round(v, 1) for k, v in explained.items()})

table = permutation_test(x, dmatrix, n_permutations=999, seed=7)
print("\npermutation ANOVA:")
print(table.to_text())
