# Run the command after "--" and pass only if it exits with status 0
# and its stdout equals the file GOLDEN byte for byte:
#   cmake -DGOLDEN=<file> -P expect_output.cmake -- <cmd> <args>...
# With REDSOC_UPDATE_GOLDEN=1 in the environment, rewrite GOLDEN from
# the output instead.
set(cmd)
set(take OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(take)
        list(APPEND cmd "${CMAKE_ARGV${i}}")
    elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
        set(take ON)
    endif()
endforeach()
execute_process(COMMAND ${cmd} RESULT_VARIABLE status
    OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "exit status ${status}, want 0\n${err}")
endif()
if("$ENV{REDSOC_UPDATE_GOLDEN}" STREQUAL "1")
    file(WRITE "${GOLDEN}" "${out}")
    return()
endif()
file(READ "${GOLDEN}" want)
if(NOT out STREQUAL want)
    message(FATAL_ERROR "stdout differs from ${GOLDEN}:\n${out}")
endif()
