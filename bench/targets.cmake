# Experiment harness: one binary per experiment (DESIGN.md section 5).
# Included from the top-level CMakeLists (not add_subdirectory) so that
# ${CMAKE_BINARY_DIR}/bench contains only the executables and
# `for b in build/bench/*; do $b; done` runs the full report cleanly.
function(gtpar_bench name)
  add_executable(${name} ${CMAKE_CURRENT_LIST_DIR}/${name}.cpp)
  target_include_directories(${name} PRIVATE ${CMAKE_CURRENT_LIST_DIR}/..)
  target_link_libraries(${name} PRIVATE
    gtpar_tree gtpar_sim gtpar_solve gtpar_ab gtpar_expand gtpar_rand
    gtpar_mp gtpar_engine gtpar_analysis gtpar_games Threads::Threads)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

gtpar_bench(bench_e1_team_solve)
gtpar_bench(bench_e2_parallel_solve)
gtpar_bench(bench_e3_total_work)
gtpar_bench(bench_e4_degree_histogram)
gtpar_bench(bench_e5_parallel_ab)
gtpar_bench(bench_e6_node_expansion)
gtpar_bench(bench_e7_randomized)
gtpar_bench(bench_e8_width_sweep)
gtpar_bench(bench_e9_message_passing)
gtpar_bench(bench_e10_threads)
gtpar_bench(bench_e11_constant)
gtpar_bench(bench_e12_nonuniform)
target_link_libraries(bench_e10_threads PRIVATE benchmark::benchmark)
gtpar_bench(bench_e13_sequential_baselines)
gtpar_bench(bench_e14_growth_rates)
gtpar_bench(bench_e15_bounded_processors)
gtpar_bench(bench_e16_wide_vs_tall)
gtpar_bench(bench_e17_promotion_ablation)
gtpar_bench(bench_throughput)
target_link_libraries(bench_throughput PRIVATE benchmark::benchmark)
gtpar_bench(bench_e18_parallel_sss)
gtpar_bench(bench_gameplay)
