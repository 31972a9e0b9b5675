"""Run the mlstar CLI in this process and capture what it prints."""

import contextlib
import io
from typing import NamedTuple, Optional

from mlstar.cli import main


class Result(NamedTuple):
    exit_code: int
    output: str  # stdout and stderr, interleaved as printed
    exception: Optional[BaseException]  # None on exit 0


def invoke(argv) -> Result:
    """main(argv) with stdout and stderr captured together in one stream.

    main ends in SystemExit, whose code is the exit code. Any other exception
    gives exit code 1 and is returned, not raised, so that a test can assert
    that none escaped.
    """
    stream = io.StringIO()
    try:
        with contextlib.redirect_stdout(stream), contextlib.redirect_stderr(stream):
            main(argv)
    except SystemExit as exc:
        code = exc.code or 0
        return Result(code, stream.getvalue(), exc if code else None)
    except Exception as exc:
        return Result(1, stream.getvalue(), exc)
    raise AssertionError("main returned without SystemExit")
