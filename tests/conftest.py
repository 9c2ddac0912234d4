"""Hypothesis settings profiles.

``mutants`` drops the shrink phase, so a property test that fails under a
kill-list mutant reports its first failing example at once instead of
minimising it; ``scripts/kill_mutants.py`` selects it with
``--hypothesis-profile=mutants``. Without that option the default profile
applies.
"""

from hypothesis import Phase, settings

settings.register_profile("mutants", phases=[Phase.explicit, Phase.reuse, Phase.generate])
