// R12 fixture: nondeterministic values must not flow into
// determinism sinks (*Stats fields). Lexed, never compiled;
// expected findings are pinned to exact lines.

#include <chrono>
#include <unordered_map>

struct FixStats
{
    unsigned long committed = 0;
    unsigned long retired = 0;
    double sim_seconds = 0.0;
};

void
collect(FixStats &st)
{
    long ticks = std::chrono::steady_clock::now()
                     .time_since_epoch()
                     .count();
    long warped = ticks / 3;
    st.retired = warped; // fires: now() through ticks and warped
    warped = 12;
    st.retired = warped; // clean: the overwrite killed the taint
    st.sim_seconds = 0.25; // clean: the designated wall-clock stat
    long elapsed = st.sim_seconds;
    st.committed += elapsed; // fires: wall-clock stat readback
    st.retired = ticks; // redsoc-lint: allow(nondet-taint)
}

void
tally(FixStats &st, const std::unordered_map<int, int> &bank)
{
    // redsoc-lint: allow(nondet-iter)
    for (const auto &[slot, credit] : bank) {
        st.committed += credit; // fires: unordered iteration order
    }
}

void
fingerprint(FixStats &st)
{
    auto key = reinterpret_cast<unsigned long>(&st);
    st.retired = key; // fires: pointer-to-integer cast
}

struct IssueRecord
{
    unsigned long select = 0;
};

void
grant(IssueRecord &op)
{
    auto key = reinterpret_cast<unsigned long>(&op);
    op.select = key; // fires: the recorder's hook payload is a sink
}
