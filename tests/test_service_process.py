"""Executor modes: only threads and sequential exist.

Work units are closures over live service state, so they run on the calling
process's thread pool or inline; any other mode name — ``"process"``
included — is a configuration error raised at construction.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.service.executor import EXECUTION_MODES, ServiceExecutor


class TestProcessExecutor:
    def test_unknown_mode_rejected(self):
        assert EXECUTION_MODES == ("threads", "sequential")
        for mode in ("fibers", "process"):
            with pytest.raises(ConfigurationError):
                ServiceExecutor(mode=mode)
