"""Reference models, one module per layer, and the two schedule drivers
(:mod:`.cluster`, :mod:`.job`) that hold the code under test to them."""

from hypothesis import settings


def examples(tier1: int) -> int:
    """Examples per property: ``tier1`` in tier-1, as deep as the profile
    asks under ``--hypothesis-profile=deep`` (CI's ``determinism`` job)."""
    deep = settings.default.max_examples
    return deep if deep > 100 else tier1
