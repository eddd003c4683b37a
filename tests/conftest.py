"""Helpers shared by the test modules."""

import dataclasses
import random

import pytest

from meanmeasure import random_interval_union


def _two_route_misses(spec, window, sets=300):
    """Random unions of ``window`` on which ``spec``'s two routes disagree.

    One route is the closed form, from the primitives; the other drops them
    and integrates the density.  A set is a miss when the masses, or the
    first moments, differ by more than the sum of the two error bounds.
    Masses are compared too: a constant factor on the density moves no mean.
    """
    by_density = dataclasses.replace(spec, cdf=None, antiderivative=None)
    rng = random.Random(0)
    misses = []
    for _ in range(sets):
        H = random_interval_union(rng, window, 5)
        mass, mass_err, moment, moment_err = spec.integrate(H)
        q_mass, q_mass_err, q_moment, q_moment_err = by_density.integrate(H)
        if (abs(mass - q_mass) > mass_err + q_mass_err
                or abs(moment - q_moment) > moment_err + q_moment_err):
            misses.append(H)
    return misses


@pytest.fixture
def two_route_misses():
    """:func:`_two_route_misses`: the check that a spec's primitives are
    primitives of its density."""
    return _two_route_misses
