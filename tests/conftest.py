import json

import pytest

from amiforge import cli
from amiforge.sieve import build_sigma_sieve

import acceptance_log


@pytest.fixture(scope="session")
def sieve_1k():
    return build_sigma_sieve(1000)


@pytest.fixture(scope="session")
def sieve_10k():
    return build_sigma_sieve(10**4)


@pytest.fixture(scope="session")
def sieve_100k():
    return build_sigma_sieve(10**5)


@pytest.fixture
def search_output(capsys):
    """Run `amiforge search` on a FamilySpec and return its JSON document
    without the run-dependent timing block and echoed worker count."""

    def run(spec, limit, workers):
        argv = ["search", spec.kind, "--k", str(spec.k), "--limit", str(limit), "--workers", str(workers)]
        for flag, value in (("--p", spec.p), ("--q", spec.q)):
            if value is not None:
                argv += [flag, str(value)]
        if spec.alphas is not None:
            argv += ["--alphas", ",".join(map(str, spec.alphas))]
        assert cli.run(argv) == 0, argv
        doc = json.loads(capsys.readouterr().out)
        del doc["timing"], doc["params"]["workers"], doc["results"]["workers"]
        return doc

    return run


def pytest_terminal_summary(terminalreporter):
    if acceptance_log.LINES:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_log.LINES:
            terminalreporter.line(line)
