# Run the command after "--" and pass only if it exits with status 2
# (a usage error) and its stderr matches EXPECT:
#   cmake -DEXPECT=<regex> -P expect_usage_error.cmake -- <cmd> <args>...
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
if(NOT status EQUAL 2)
    message(FATAL_ERROR "exit status ${status}, want 2\n${out}${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
    message(FATAL_ERROR "stderr does not match '${EXPECT}':\n${err}")
endif()
