"""Sample builders that only the tests use: a similarity group of the line for
the 1-D conjugation tests, and a unit translation for the kernel tests."""

from solvrigid import AlmostTranslation, Const
from solvrigid.fixtures import SPEC_R1
from solvrigid.tukia import GroupSample, PLHomeo


def similarity_1d_sample(word_len: int = 6) -> GroupSample:
    """Pure similarities of the line: scaling by 2 about the origin."""
    gen = PLHomeo([0.0], [0.0], 2.0, 2.0, stretch=2.0)
    return GroupSample(generators=[gen], word_len=word_len, alpha1=1.0)


def unit_translation_1d() -> AlmostTranslation:
    return AlmostTranslation(SPEC_R1, [Const([1.0])], K=1.0)
