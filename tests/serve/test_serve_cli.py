"""The ``repro-serve`` command line: bad numeric input is a usage error."""

from __future__ import annotations

import pytest

from repro.serve.__main__ import main


@pytest.mark.parametrize("argv", [
    ["run", "--port", "99999"],
    ["--port", "-5"],
    ["stats", "--port", "65536"],
])
def test_port_out_of_range_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--port must be in 0..65535" in err
    assert "Traceback" not in err
