"""Synthesizable-code generation (the Fig. 6 "set of synthesizable codes").

Ditto's real output is Intel FPGA SDK for OpenCL source: one autorun
kernel per architectural module, connected by channels, with the
developer's PrePE/PE bodies inlined into the template (Listing 2).
This module emits that source tree as text.  It cannot be compiled here
(no toolchain, and the per-application bodies are expressed in Python),
but the *structure* — kernel set, channel topology, mapping table,
profiler plumbing, attribute pragmas — is the faithful artifact, and it
is what the structure tests and the example inspect.

The generator is deliberately template-based (string assembly, no AST
magic): the paper's system is itself a template instantiation flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.config import ArchitectureConfig
from repro.ditto.spec import AppSpec

_HEADER = """\
// Generated by the Ditto reproduction framework.
// Application: {app} ({description})
// Implementation: {label} — N={lanes} PrePEs, M={pripes} PriPEs, X={secpes} SecPEs
// Target: Intel FPGA SDK for OpenCL (channels extension).
#pragma OPENCL EXTENSION cl_intel_channels : enable

typedef struct {{ uint key; uint value; }} tuple_t;
typedef struct {{ uchar dst; uint key; uint value; }} routed_t;
typedef struct {{ uchar dst[{lanes}]; tuple_t data[{lanes}]; uchar count; }} group_t;
"""

_CHANNELS = """\
// ---- channel topology (Fig. 3) ----
channel tuple_t  lane_ch[{lanes}]        __attribute__((depth(8)));
channel routed_t routed_ch[{lanes}]      __attribute__((depth(8)));
channel routed_t designated_ch[{lanes}]  __attribute__((depth(8)));
channel group_t  group_ch[{designated}]  __attribute__((depth({group_depth})));
channel routed_t pe_ch[{designated}]     __attribute__((depth({channel_depth})));
channel ushort   plan_ch[{lanes}]        __attribute__((depth({plan_depth})));
channel uchar    stats_ch[{lanes}]       __attribute__((depth(16)));
channel ushort   merger_plan_ch          __attribute__((depth(8)));
channel uchar    host_ctl_ch             __attribute__((depth(8)));
"""

_PREPE = """\
// ---- PrePE #{i} (user routing rule inlined; II = {ii_prepe}) ----
__attribute__((max_global_work_dim(0)))
__attribute__((autorun))
__kernel void prepe_{i}(void) {{
    while (1) {{
        tuple_t t = read_channel_intel(lane_ch[{i}]);
        routed_t r;
        r.key = t.key;
        r.value = {prepare_value_expr};
        r.dst = {route_expr};
        write_channel_intel(routed_ch[{i}], r);
    }}
}}
"""

_MAPPER = """\
// ---- mapper #{i} (mapping table M x (X+1), one plan pair per cycle) ----
__attribute__((max_global_work_dim(0)))
__attribute__((autorun))
__kernel void mapper_{i}(void) {{
    uchar table[{pripes}][{columns}];
    uchar counter[{pripes}];
    uchar rr[{pripes}];
    #pragma unroll
    for (int p = 0; p < {pripes}; p++) {{
        counter[p] = 1; rr[p] = 0;
        #pragma unroll
        for (int c = 0; c < {columns}; c++) table[p][c] = p;
    }}
    while (1) {{
        bool got_pair = false;
        ushort pair = read_channel_nb_intel(plan_ch[{i}], &got_pair);
        if (got_pair) {{
            uchar secpe = pair >> 8, pripe = pair & 0xff;
            if (secpe == 0xff) {{          // DETACH
                #pragma unroll
                for (int p = 0; p < {pripes}; p++) {{ counter[p] = 1; rr[p] = 0; }}
            }} else {{
                table[pripe][counter[pripe]] = secpe;
                counter[pripe]++;
            }}
        }}
        routed_t r = read_channel_intel(routed_ch[{i}]);
        uchar row = r.dst;
        uchar pos = rr[row] % counter[row];
        rr[row]++;
        bool ok = false;
        write_channel_nb_intel(stats_ch[{i}], row, &ok); // lossy stats
        r.dst = table[row][pos];
        write_channel_intel(designated_ch[{i}], r);
    }}
}}
"""

_COMBINER = """\
// ---- combiner (gather N tuples, duplicate to M+X datapaths) ----
__attribute__((max_global_work_dim(0)))
__attribute__((autorun))
__kernel void combiner(void) {{
    while (1) {{
        group_t g; g.count = 0;
        #pragma unroll
        for (int l = 0; l < {lanes}; l++) {{
            bool ok = false;
            routed_t r = read_channel_nb_intel({combiner_input}[l], &ok);
            if (ok) {{
                g.dst[g.count] = r.dst;
                g.data[g.count].key = r.key;
                g.data[g.count].value = r.value;
                g.count++;
            }}
        }}
        if (g.count) {{
            #pragma unroll
            for (int d = 0; d < {designated}; d++)
                write_channel_intel(group_ch[d], g);
        }}
    }}
}}
"""

_FILTER = """\
// ---- decoder + filter for designated PE #{j} ----
__attribute__((max_global_work_dim(0)))
__attribute__((autorun))
__kernel void filter_{j}(void) {{
    while (1) {{
        group_t g = read_channel_intel(group_ch[{j}]);
        // decoder: mask positions matching this PE (preset-table lookup)
        #pragma unroll
        for (int k = 0; k < {lanes}; k++) {{
            if (k < g.count && g.dst[k] == {j}) {{
                routed_t r;
                r.dst = {j};
                r.key = g.data[k].key;
                r.value = g.data[k].value;
                write_channel_intel(pe_ch[{j}], r);
            }}
        }}
    }}
}}
"""

_PE = """\
// ---- {kind} #{j} (user update rule inlined; II = {ii_pe}) ----
__attribute__((max_global_work_dim(0)))
__attribute__((autorun))
__kernel void pe_{j}(void) {{
    {buffer_decl}
    while (1) {{
        routed_t r = read_channel_intel(pe_ch[{j}]);
        {process_stmt}
    }}
}}
"""

_PROFILER = """\
// ---- runtime profiler (host-enqueued; exits on reschedule) ----
__kernel void runtime_profiler(uint profiling_cycles, uint monitor_window,
                               float threshold) {{
    uint hist[{lanes}][{pripes}];
    for (int l = 0; l < {lanes}; l++)
        for (int p = 0; p < {pripes}; p++) hist[l][p] = 0;
    // Phase 1: count PriPE IDs from the mappers for the window.
    for (uint c = 0; c < profiling_cycles; c++) {{
        #pragma unroll
        for (int l = 0; l < {lanes}; l++) {{
            bool ok = false;
            uchar p = read_channel_nb_intel(stats_ch[l], &ok);
            if (ok) hist[l][p]++;
        }}
    }}
    // Merge + greedy SecPE assignment (serial: not on the critical path).
    uint merged[{pripes}];
    uchar attached[{pripes}];
    for (int p = 0; p < {pripes}; p++) {{
        merged[p] = 0; attached[p] = 0;
        for (int l = 0; l < {lanes}; l++) merged[p] += hist[l][p];
    }}
    for (int x = 0; x < {secpes}; x++) {{
        int best = 0; float best_load = 0.0f;
        for (int p = 0; p < {pripes}; p++) {{
            float eff = (float)merged[p] / (1 + attached[p]);
            if (eff > best_load) {{ best_load = eff; best = p; }}
        }}
        attached[best]++;
        ushort pair = (ushort)((({pripes} + x) << 8) | best);
        for (int l = 0; l < {lanes}; l++)
            write_channel_intel(plan_ch[l], pair);
        write_channel_intel(merger_plan_ch, pair);
    }}
    // Phase 2: throughput monitoring (clock-tick counter).
    uint peak = 0;
    while (1) {{
        uint seen = 0;
        for (uint c = 0; c < monitor_window; c++) {{
            #pragma unroll
            for (int l = 0; l < {lanes}; l++) {{
                bool ok = false;
                read_channel_nb_intel(stats_ch[l], &ok);
                if (ok) seen++;
            }}
        }}
        if (seen > peak) peak = seen;
        else if (threshold > 0.0f && seen < threshold * peak) {{
            ushort detach = 0xff00;
            for (int l = 0; l < {lanes}; l++)
                write_channel_intel(plan_ch[l], detach);
            write_channel_intel(merger_plan_ch, detach);
            write_channel_intel(host_ctl_ch, (uchar)1);
            return;  // exits itself; host re-enqueues
        }}
    }}
}}
"""

_MERGER = """\
// ---- merger (fold SecPE partials per scheduling plan) ----
__kernel void merger(__global {result_type}* restrict results) {{
    // Receives plan pairs / detach over merger_plan_ch and folds each
    // SecPE buffer into its assigned PriPE's result region.
    {merge_body}
}}
"""


@dataclass
class GeneratedSource:
    """One generated implementation's source tree.

    Attributes
    ----------
    label:
        Implementation label (``16P+4S``).
    files:
        Mapping of file name to OpenCL source text.
    """

    label: str
    files: Dict[str, str]

    @property
    def kernel_count(self) -> int:
        """Number of ``__kernel`` definitions across all files."""
        return sum(text.count("__kernel") for text in self.files.values())


class OpenCLGenerator:
    """Emits the OpenCL source set for one implementation.

    Parameters
    ----------
    route_expr:
        C expression for the destination PriPE ID in terms of ``t.key``
        (Listing 2 line 5; default is the low-bits rule).
    prepare_value_expr:
        C expression for the routed value (identity by default).
    process_stmt:
        C statement applying one tuple to the private buffer
        (Listing 2 lines 14-15).
    buffer_decl:
        C declaration of one PE's private buffer.
    """

    def __init__(
        self,
        route_expr: str = "t.key & {mask}",
        prepare_value_expr: str = "t.value",
        process_stmt: str = "hist[HASH(r.key)]++;",
        buffer_decl: str = "__private uint hist[BUFFER_WORDS];",
        result_type: str = "uint",
    ) -> None:
        self.route_expr = route_expr
        self.prepare_value_expr = prepare_value_expr
        self.process_stmt = process_stmt
        self.buffer_decl = buffer_decl
        self.result_type = result_type

    @classmethod
    def from_spec(cls, spec: AppSpec) -> "OpenCLGenerator":
        """Generator preloaded with the spec's Listing-2 bodies."""
        hints = spec.codegen
        return cls(
            route_expr=hints.route_expr,
            prepare_value_expr=hints.prepare_value_expr,
            process_stmt=hints.process_stmt,
            buffer_decl=hints.buffer_decl,
            result_type=hints.result_type,
        )

    def generate(self, spec: AppSpec,
                 config: ArchitectureConfig) -> GeneratedSource:
        """Emit the source files for ``spec`` at ``config``'s shape."""
        lanes = config.lanes
        pripes = config.pripes
        secpes = config.secpes
        designated = config.designated_pes
        mask = hex(pripes - 1)

        common = dict(
            app=spec.name,
            description=spec.description,
            label=config.label,
            lanes=lanes,
            pripes=pripes,
            secpes=secpes,
            designated=designated,
            ii_prepe=spec.ii_prepe,
            ii_pe=spec.ii_pe,
            group_depth=config.group_channel_depth,
            channel_depth=config.channel_depth,
            plan_depth=secpes + 4,
            columns=secpes + 1,
        )

        files: Dict[str, str] = {}
        files["common.h"] = (
            _HEADER.format(**common) + "\n" + _CHANNELS.format(**common)
        )

        prepes: List[str] = []
        for i in range(lanes):
            prepes.append(_PREPE.format(
                i=i,
                route_expr=self.route_expr.format(mask=mask),
                prepare_value_expr=self.prepare_value_expr,
                **common,
            ))
        files["prepe.cl"] = "\n".join(prepes)

        if config.skew_handling:
            mappers = [
                _MAPPER.format(i=i, **common) for i in range(lanes)
            ]
            files["mapper.cl"] = "\n".join(mappers)
            files["profiler.cl"] = _PROFILER.format(**common)
            files["merger.cl"] = _MERGER.format(
                result_type=self.result_type,
                merge_body=(
                    "// plan-directed fold; application-specific "
                    "reduction inlined by the template"
                ),
            )
            combiner_input = "designated_ch"
        else:
            combiner_input = "routed_ch"

        files["routing.cl"] = (
            _COMBINER.format(combiner_input=combiner_input, **common)
            + "\n"
            + "\n".join(_FILTER.format(j=j, **common)
                        for j in range(designated))
        )

        pes: List[str] = []
        for j in range(designated):
            pes.append(_PE.format(
                j=j,
                kind="PriPE" if j < pripes else "SecPE",
                buffer_decl=self.buffer_decl,
                process_stmt=self.process_stmt,
                **common,
            ))
        files["pe.cl"] = "\n".join(pes)

        return GeneratedSource(label=config.label, files=files)


def generate_implementation_set(
    spec: AppSpec,
    configs: List[ArchitectureConfig],
    generator: OpenCLGenerator | None = None,
) -> List[GeneratedSource]:
    """Fig. 6 step 1: one source set per SecPE count.

    Uses the spec's own codegen hints unless an explicit generator is
    supplied.
    """
    generator = generator or OpenCLGenerator.from_spec(spec)
    return [generator.generate(spec, config) for config in configs]
