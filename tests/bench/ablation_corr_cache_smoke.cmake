# Smoke run of the Section-V ablation (ii) bench at a small scale:
# it must exit 0 and print both read-stream tables.
#
# Invoked by ctest (see tests/CMakeLists.txt) as:
#   cmake -DBENCH=<bench_ablation_corr_cache> -DCACHE=<dir>
#         -P ablation_corr_cache_smoke.cmake

set(ENV{ETHKV_BENCH_BLOCKS} 20)
set(ENV{ETHKV_BENCH_CACHE} ${CACHE})
execute_process(
    COMMAND ${BENCH}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench exited with ${rc}:\n${out}\n${err}")
endif()
foreach(trace BareTrace CacheTrace)
    string(FIND "${out}" "--- ${trace} read stream" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "no ${trace} table in:\n${out}")
    endif()
endforeach()
message(STATUS "ablation smoke ok")
