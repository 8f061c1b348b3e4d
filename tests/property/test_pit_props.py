"""Property-based tests for the Page Information Table."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.modes import PageMode
from repro.core.pit import PageInformationTable

FRAMES = st.integers(0, 15)
GPAGES = st.integers(0, 15)


@st.composite
def pit_programs(draw):
    """Random install/remove/lookup programs."""
    ops = draw(st.lists(st.one_of(
        st.tuples(st.just("install"), FRAMES, GPAGES,
                  st.sampled_from([PageMode.SCOMA, PageMode.LANUMA,
                                   PageMode.LOCAL])),
        st.tuples(st.just("remove"), FRAMES),
        st.tuples(st.just("by_gpage"), GPAGES,
                  st.one_of(st.none(), FRAMES)),
    ), min_size=1, max_size=80))
    return ops


@given(pit_programs())
@settings(max_examples=200, deadline=None)
def test_forward_and_reverse_maps_stay_consistent(ops):
    pit = PageInformationTable(node_id=1, lines_per_page=4)
    model_frames = {}   # frame -> (gpage, mode)
    model_gpages = {}   # gpage -> frame (global modes only)
    for op in ops:
        if op[0] == "install":
            _, frame, gpage, mode = op
            taken = frame in model_frames
            gpage_taken = mode.is_global and gpage in model_gpages
            home = 0 if mode.is_global else 1
            if taken or gpage_taken:
                continue  # the PIT raises; model skips
            pit.install(frame, gpage=gpage if mode.is_global else -1,
                        static_home=home, dynamic_home=home,
                        home_frame=0, mode=mode)
            model_frames[frame] = (gpage, mode)
            if mode.is_global:
                model_gpages[gpage] = frame
        elif op[0] == "remove":
            frame = op[1]
            if frame in model_frames:
                entry = pit.remove(frame)
                gpage, mode = model_frames.pop(frame)
                if mode.is_global:
                    del model_gpages[gpage]
                assert entry.frame == frame
        else:
            _, gpage, guess = op
            entry = pit.by_gpage(gpage, guess)
            expected = model_gpages.get(gpage)
            if expected is None:
                assert entry is None
            else:
                assert entry is not None and entry.frame == expected
    # Final cross-check of both maps.
    assert len(pit) == len(model_frames)
    for frame, (gpage, mode) in model_frames.items():
        assert pit.entry_or_none(frame) is not None
        if mode.is_global:
            assert pit.entry_for_gpage(gpage).frame == frame


@given(st.lists(st.tuples(GPAGES, st.integers(0, 3)), min_size=1,
                max_size=60),
       st.integers(2, 64))
@settings(max_examples=100, deadline=None)
def test_directory_cache_never_exceeds_capacity(keys, capacity):
    from repro.core.directory import DirectoryCache
    cache = DirectoryCache(capacity)
    for gpage, lip in keys:
        cache.access(gpage, lip)
        assert len(cache._keys) <= capacity
    # A repeat access to the most recent key always hits.
    cache.access(*keys[-1])
    assert cache.hits >= 1


@given(st.lists(st.integers(0, 20), min_size=1, max_size=100))
@settings(max_examples=100, deadline=None)
def test_touched_lines_is_a_set_cardinality(lines):
    from repro.core.pit import PitEntry
    entry = PitEntry(frame=0, gpage=0, static_home=0, dynamic_home=0,
                     home_frame=0, mode=PageMode.SCOMA)
    for line in lines:
        entry.touched |= 1 << line
    assert entry.touched_lines() == len(set(lines))
