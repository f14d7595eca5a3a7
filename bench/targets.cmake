# Benchmark harness targets. Included from the top-level CMakeLists
# (rather than added as a subdirectory) so that build/bench/ contains
# only the runnable benchmark binaries:
#
#   for b in build/bench/*; do $b; done
#
# regenerates every table and figure of the paper.

function(tsp_add_bench name)
    add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cc)
    target_link_libraries(${name} PRIVATE
        tsp_experiment tsp_workload tsp_sim tsp_core tsp_analysis
        tsp_trace tsp_stats tsp_util)
    set_target_properties(${name} PROPERTIES
        RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

# Paper tables and figures (one binary each).
tsp_add_bench(bench_table1_suite)
tsp_add_bench(bench_table2_characteristics)
tsp_add_bench(bench_table3_arch_params)
tsp_add_bench(bench_fig2_locusroute)
tsp_add_bench(bench_fig3_fft)
tsp_add_bench(bench_fig4_barneshut)
tsp_add_bench(bench_fig5_miss_components)
tsp_add_bench(bench_table4_static_vs_dynamic)
tsp_add_bench(bench_table5_infinite_cache)

# Companion studies and ablations.
tsp_add_bench(bench_write_runs)
tsp_add_bench(bench_ablation_associativity)
tsp_add_bench(bench_ablation_contexts)
tsp_add_bench(bench_ablation_switch_cost)
tsp_add_bench(bench_ablation_sharing_oracle)
tsp_add_bench(bench_ablation_barriers)
tsp_add_bench(bench_ablation_bandwidth)
tsp_add_bench(bench_ablation_false_sharing)
tsp_add_bench(bench_paper_summary)

# Micro-benchmarks (google-benchmark).
foreach(name bench_micro_simulator bench_micro_placement
        bench_batched_simulator bench_result_store)
    tsp_add_bench(${name})
    target_link_libraries(${name} PRIVATE
        benchmark::benchmark benchmark::benchmark_main)
endforeach()
target_link_libraries(bench_result_store PRIVATE tsp_svc)
