"""Pytest bootstrap: make ``src/`` importable even without installing the package.

``pip install -e .`` is the supported path; this fallback keeps ``pytest``
usable in minimal environments (e.g. offline machines without the ``wheel``
package).
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(__file__), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

# ``--hypothesis-profile=fuzz`` raises the example budget of every test that
# does not fix its own (CI runs the wire-codec fuzz tests and the threshold-family
# differential under it).
from hypothesis import settings  # noqa: E402

settings.register_profile("fuzz", max_examples=2000, deadline=None)
