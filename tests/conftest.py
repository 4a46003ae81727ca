import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # fixed example sequence, no example database and no deadline, so a
    # run gives the same cases and the same verdict on any host
    settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
    settings.load_profile("tier1")
