"""Live-suite plumbing: an error that asyncio only logs fails the test.

An exception that escapes a connection handler never reaches the test: the
stream protocol reports it through the loop's exception handler, which logs
"Unhandled exception in client_connected_cb" on the ``asyncio`` logger and
closes the socket. The autouse fixture below turns every such ERROR record
into a test failure.
"""

import logging

import pytest


class _ErrorRecords(logging.Handler):
    def __init__(self):
        super().__init__(logging.ERROR)
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append(record)


@pytest.fixture(autouse=True)
def asyncio_errors_fail_the_test():
    handler = _ErrorRecords()
    logger = logging.getLogger("asyncio")
    logger.addHandler(handler)
    try:
        yield
    finally:
        logger.removeHandler(handler)
    if handler.records:
        pytest.fail(
            "asyncio logged at ERROR:\n"
            + "\n".join(handler.format(r) for r in handler.records),
            pytrace=False,
        )
