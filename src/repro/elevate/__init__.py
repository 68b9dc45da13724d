"""ELEVATE: the strategy language controlling the rewrite process."""

from repro.elevate.core import (
    Failure, RewriteResult, Strategy, StrategyError, Success,
    all_, all_top_down, apply_once, argument, body, bottom_up, fail,
    function, id_, lchoice, normalize, one, repeat, rule, seq, some,
    top_down, try_,
)
