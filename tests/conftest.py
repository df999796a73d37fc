from hypothesis import settings

# One profile for every property test: no per-example deadline, as a slow
# or busy host is not a failure, and no example database, so what a test
# draws does not depend on what earlier runs on the machine saved under
# `.hypothesis/`.
settings.register_profile("herdvote", deadline=None, database=None)
settings.load_profile("herdvote")
