from hypothesis import settings

# CPU speed varies between runs on shared hosts, so a per-example deadline
# would flake; derandomized examples and no example database keep the
# default gate deterministic.
settings.register_profile("gate", deadline=None, derandomize=True, database=None)
settings.load_profile("gate")
