"""Stock f-divergence generators for the generic-engine cross-checks.

Four classical generators with their analytic derivatives, and a registry
that adds the unified AG/JS family at eight parameter values.  The package
evaluates its catalog through ``divbounds.generator``; these give the
generic engine other convex generators to be checked against closed forms.
"""

import math

from divbounds import GeneratorFunction, generator


def kl_generator() -> GeneratorFunction:
    """x ln x, generating the Kullback-Leibler relative information."""
    return GeneratorFunction(
        fn=lambda x: x * math.log(x),
        d1=lambda x: math.log(x) + 1.0,
        d2=lambda x: 1.0 / x,
        d3=lambda x: -1.0 / (x * x),
        label="kl",
    )


def reverse_kl_generator() -> GeneratorFunction:
    """-ln x, generating the reversed relative information."""
    return GeneratorFunction(
        fn=lambda x: -math.log(x),
        d1=lambda x: -1.0 / x,
        d2=lambda x: 1.0 / (x * x),
        d3=lambda x: -2.0 / (x * x * x),
        label="reverse_kl",
    )


def pearson_chi2_generator() -> GeneratorFunction:
    """(x - 1)^2, generating the Pearson chi-square divergence."""
    return GeneratorFunction(
        fn=lambda x: (x - 1.0) * (x - 1.0),
        d1=lambda x: 2.0 * (x - 1.0),
        d2=lambda x: 2.0,
        d3=lambda x: 0.0,
        label="pearson_chi2",
    )


def hellinger_generator() -> GeneratorFunction:
    """(sqrt(x) - 1)^2 / 2, generating the Hellinger discrimination."""
    return GeneratorFunction(
        fn=lambda x: 0.5 * (math.sqrt(x) - 1.0) ** 2,
        d1=lambda x: 0.5 * (1.0 - 1.0 / math.sqrt(x)),
        d2=lambda x: 0.25 * x ** -1.5,
        d3=lambda x: -0.375 * x ** -2.5,
        label="hellinger",
    )


_BUILTIN_S = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0)


def builtin_generators() -> dict[str, GeneratorFunction]:
    """Registry of the stock generators plus the unified AG/JS family at
    eight parameter values, keyed by label."""
    gens = [kl_generator(), reverse_kl_generator(), pearson_chi2_generator(),
            hellinger_generator()]
    gens.extend(generator(s) for s in _BUILTIN_S)
    return {g.label: g for g in gens}
