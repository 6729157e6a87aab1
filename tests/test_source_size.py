"""The source-size counter that tracks line counts and settable values."""

import contextlib
import io

from source_size import main

MODULE = '''\
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Config:
    rate: float
    size: int = 3
    cache: dict = field(default_factory=dict)
    state: int = field(default=0, init=False)
    LIMIT = 9

    def scaled(self, factor, *rest, clip=None, **extra):
        return self.rate * factor

    @classmethod
    def make(cls, rate, /):
        return cls(rate)


square = lambda v: v * v
'''


def test_counts_a_known_module(tmp_path):
    """rate, size and cache are init fields (state is not, LIMIT has no
    annotation); scaled takes factor, rest, clip and extra; make takes
    rate; the lambda takes v: 3 + 4 + 1 + 1 = 9 settable values."""
    package = tmp_path / "src" / "rjpo"
    package.mkdir(parents=True)
    (package / "config.py").write_text(MODULE)
    (package / "empty.py").write_text("")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([str(tmp_path)]) == 0
    assert out.getvalue().splitlines() == [
        "    20 src/rjpo/config.py",
        "     0 src/rjpo/empty.py",
        "    20 total lines",
        "     9 settable values",
    ]
