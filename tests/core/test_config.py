"""TitanCfiConfig rejects a bad integer field with a typed error."""

import pytest

from repro.core.config import TitanCfiConfig
from repro.errors import ConfigError


@pytest.mark.parametrize("kwargs", [
    {"queue_depth": "8"}, {"queue_depth": True}, {"queue_depth": 2.5},
    {"queue_depth": 0},
], ids=repr)
def test_bad_int_field_is_a_config_error(kwargs):
    (field,) = kwargs
    with pytest.raises(ConfigError, match=field):
        TitanCfiConfig(**kwargs)
