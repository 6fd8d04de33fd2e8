"""The legacy ``plan_cache_size`` options key.

Each kernel call builds the extension plans of the alphabets it is given,
and interners cache none, so the key sizes nothing.  It still loads from
old options documents, range-checked and then dropped.
"""

from repro.api import CheckOptions


class TestPlanCacheThreading:
    def test_check_options_field_round_trips(self):
        # Options documents written while the knob existed still load, to
        # the options they would have without it.
        options = CheckOptions.from_dict({"max_depth": 3, "plan_cache_size": 7})
        assert options == CheckOptions(max_depth=3)
        assert "plan_cache_size" not in options.to_dict()
        assert CheckOptions.from_dict(options.to_dict()) == options
        assert CheckOptions.from_dict({"plan_cache_size": None}) == CheckOptions()
