library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
use ieee.float_pkg.all;

entity branch_w0 is
  port (
    clk : in std_logic;
    rst : in std_logic;
    in0_valid : in std_logic;
    in0_ready : out std_logic;
    in1_data : in std_logic_vector(0 downto 0);
    in1_valid : in std_logic;
    in1_ready : out std_logic;
    out0_valid : out std_logic;
    out0_ready : in std_logic;
    out1_valid : out std_logic;
    out1_ready : in std_logic
  );
end entity;

architecture behav of branch_w0 is
  signal taken : std_logic;
begin
  taken <= in0_valid and in1_valid;
  out0_valid <= taken and in1_data(0);
  out1_valid <= taken and not in1_data(0);
  in0_ready <= taken and ((in1_data(0) and out0_ready) or (not in1_data(0) and out1_ready));
  in1_ready <= taken and ((in1_data(0) and out0_ready) or (not in1_data(0) and out1_ready));
end architecture;

entity branch_w64 is
  port (
    clk : in std_logic;
    rst : in std_logic;
    in0_data : in std_logic_vector(63 downto 0);
    in0_valid : in std_logic;
    in0_ready : out std_logic;
    in1_data : in std_logic_vector(0 downto 0);
    in1_valid : in std_logic;
    in1_ready : out std_logic;
    out0_data : out std_logic_vector(63 downto 0);
    out0_valid : out std_logic;
    out0_ready : in std_logic;
    out1_data : out std_logic_vector(63 downto 0);
    out1_valid : out std_logic;
    out1_ready : in std_logic
  );
end entity;

architecture behav of branch_w64 is
  signal taken : std_logic;
begin
  taken <= in0_valid and in1_valid;
  out0_valid <= taken and in1_data(0);
  out1_valid <= taken and not in1_data(0);
  in0_ready <= taken and ((in1_data(0) and out0_ready) or (not in1_data(0) and out1_ready));
  in1_ready <= taken and ((in1_data(0) and out0_ready) or (not in1_data(0) and out1_ready));
  out0_data <= in0_data;
  out1_data <= in0_data;
end architecture;

entity buffer_w0 is
  port (
    clk : in std_logic;
    rst : in std_logic;
    in0_valid : in std_logic;
    in0_ready : out std_logic;
    out0_valid : out std_logic;
    out0_ready : in std_logic
  );
end entity;

architecture behav of buffer_w0 is
  signal full : std_logic;
begin
  in0_ready <= not full;
  out0_valid <= full;
  process (clk)
  begin
    if rising_edge(clk) then
      if rst = '1' then
        full <= '0';
      elsif full = '0' and in0_valid = '1' then
        full <= '1';
      elsif full = '1' and out0_ready = '1' then
        full <= '0';
      end if;
    end if;
  end process;
end architecture;

entity buffer_w64 is
  port (
    clk : in std_logic;
    rst : in std_logic;
    in0_data : in std_logic_vector(63 downto 0);
    in0_valid : in std_logic;
    in0_ready : out std_logic;
    out0_data : out std_logic_vector(63 downto 0);
    out0_valid : out std_logic;
    out0_ready : in std_logic
  );
end entity;

architecture behav of buffer_w64 is
  signal full : std_logic;
  signal data_reg : std_logic_vector(63 downto 0);
begin
  in0_ready <= not full;
  out0_valid <= full;
  out0_data <= data_reg;
  process (clk)
  begin
    if rising_edge(clk) then
      if rst = '1' then
        full <= '0';
      elsif full = '0' and in0_valid = '1' then
        full <= '1';
        data_reg <= in0_data;
      elsif full = '1' and out0_ready = '1' then
        full <= '0';
      end if;
    end if;
  end process;
end architecture;

entity const_w64 is
  generic (
    g_value : std_logic_vector(63 downto 0)
  );
  port (
    clk : in std_logic;
    rst : in std_logic;
    in0_valid : in std_logic;
    in0_ready : out std_logic;
    out0_data : out std_logic_vector(63 downto 0);
    out0_valid : out std_logic;
    out0_ready : in std_logic
  );
end entity;

architecture behav of const_w64 is
begin
  out0_valid <= in0_valid;
  in0_ready <= out0_ready;
  out0_data <= g_value;
end architecture;

entity entry_w0 is
  port (
    clk : in std_logic;
    rst : in std_logic;
    in0_valid : in std_logic;
    in0_ready : out std_logic;
    out0_valid : out std_logic;
    out0_ready : in std_logic
  );
end entity;

architecture behav of entry_w0 is
begin
  out0_valid <= in0_valid;
  in0_ready <= out0_ready;
end architecture;

entity entry_w64 is
  port (
    clk : in std_logic;
    rst : in std_logic;
    in0_data : in std_logic_vector(63 downto 0);
    in0_valid : in std_logic;
    in0_ready : out std_logic;
    out0_data : out std_logic_vector(63 downto 0);
    out0_valid : out std_logic;
    out0_ready : in std_logic
  );
end entity;

architecture behav of entry_w64 is
begin
  out0_valid <= in0_valid;
  in0_ready <= out0_ready;
  out0_data <= in0_data;
end architecture;

entity exit_w64 is
  port (
    clk : in std_logic;
    rst : in std_logic;
    in0_data : in std_logic_vector(63 downto 0);
    in0_valid : in std_logic;
    in0_ready : out std_logic;
    out0_data : out std_logic_vector(63 downto 0);
    out0_valid : out std_logic;
    out0_ready : in std_logic
  );
end entity;

architecture behav of exit_w64 is
begin
  out0_valid <= in0_valid;
  in0_ready <= out0_ready;
  out0_data <= in0_data;
end architecture;

entity fork_w0_n2 is
  port (
    clk : in std_logic;
    rst : in std_logic;
    in0_valid : in std_logic;
    in0_ready : out std_logic;
    out0_valid : out std_logic;
    out0_ready : in std_logic;
    out1_valid : out std_logic;
    out1_ready : in std_logic
  );
end entity;

architecture behav of fork_w0_n2 is
  signal all_ready : std_logic;
begin
  all_ready <= out0_ready and out1_ready;
  in0_ready <= all_ready;
  out0_valid <= in0_valid;
  out1_valid <= in0_valid;
end architecture;

entity fork_w0_n5 is
  port (
    clk : in std_logic;
    rst : in std_logic;
    in0_valid : in std_logic;
    in0_ready : out std_logic;
    out0_valid : out std_logic;
    out0_ready : in std_logic;
    out1_valid : out std_logic;
    out1_ready : in std_logic;
    out2_valid : out std_logic;
    out2_ready : in std_logic;
    out3_valid : out std_logic;
    out3_ready : in std_logic;
    out4_valid : out std_logic;
    out4_ready : in std_logic
  );
end entity;

architecture behav of fork_w0_n5 is
  signal all_ready : std_logic;
begin
  all_ready <= out0_ready and out1_ready and out2_ready and out3_ready and out4_ready;
  in0_ready <= all_ready;
  out0_valid <= in0_valid;
  out1_valid <= in0_valid;
  out2_valid <= in0_valid;
  out3_valid <= in0_valid;
  out4_valid <= in0_valid;
end architecture;

entity fork_w1_n2 is
  port (
    clk : in std_logic;
    rst : in std_logic;
    in0_data : in std_logic_vector(0 downto 0);
    in0_valid : in std_logic;
    in0_ready : out std_logic;
    out0_data : out std_logic_vector(0 downto 0);
    out0_valid : out std_logic;
    out0_ready : in std_logic;
    out1_data : out std_logic_vector(0 downto 0);
    out1_valid : out std_logic;
    out1_ready : in std_logic
  );
end entity;

architecture behav of fork_w1_n2 is
  signal all_ready : std_logic;
begin
  all_ready <= out0_ready and out1_ready;
  in0_ready <= all_ready;
  out0_valid <= in0_valid;
  out0_data <= in0_data;
  out1_valid <= in0_valid;
  out1_data <= in0_data;
end architecture;

entity fork_w64_n4 is
  port (
    clk : in std_logic;
    rst : in std_logic;
    in0_data : in std_logic_vector(63 downto 0);
    in0_valid : in std_logic;
    in0_ready : out std_logic;
    out0_data : out std_logic_vector(63 downto 0);
    out0_valid : out std_logic;
    out0_ready : in std_logic;
    out1_data : out std_logic_vector(63 downto 0);
    out1_valid : out std_logic;
    out1_ready : in std_logic;
    out2_data : out std_logic_vector(63 downto 0);
    out2_valid : out std_logic;
    out2_ready : in std_logic;
    out3_data : out std_logic_vector(63 downto 0);
    out3_valid : out std_logic;
    out3_ready : in std_logic
  );
end entity;

architecture behav of fork_w64_n4 is
  signal all_ready : std_logic;
begin
  all_ready <= out0_ready and out1_ready and out2_ready and out3_ready;
  in0_ready <= all_ready;
  out0_valid <= in0_valid;
  out0_data <= in0_data;
  out1_valid <= in0_valid;
  out1_data <= in0_data;
  out2_valid <= in0_valid;
  out2_data <= in0_data;
  out3_valid <= in0_valid;
  out3_data <= in0_data;
end architecture;

entity merge_w0_n2 is
  port (
    clk : in std_logic;
    rst : in std_logic;
    in0_valid : in std_logic;
    in0_ready : out std_logic;
    in1_valid : in std_logic;
    in1_ready : out std_logic;
    out0_valid : out std_logic;
    out0_ready : in std_logic
  );
end entity;

architecture behav of merge_w0_n2 is
begin
  out0_valid <= in0_valid or in1_valid;
  in0_ready <= in0_valid and out0_ready;
  in1_ready <= in1_valid and out0_ready;
end architecture;

entity merge_w64_n2 is
  port (
    clk : in std_logic;
    rst : in std_logic;
    in0_data : in std_logic_vector(63 downto 0);
    in0_valid : in std_logic;
    in0_ready : out std_logic;
    in1_data : in std_logic_vector(63 downto 0);
    in1_valid : in std_logic;
    in1_ready : out std_logic;
    out0_data : out std_logic_vector(63 downto 0);
    out0_valid : out std_logic;
    out0_ready : in std_logic
  );
end entity;

architecture behav of merge_w64_n2 is
begin
  out0_valid <= in0_valid or in1_valid;
  in0_ready <= in0_valid and out0_ready;
  in1_ready <= in1_valid and out0_ready;
  out0_data <= in0_data when in0_valid = '1' else in1_data;
end architecture;

entity op_fcmp_gt_f64_l1 is
  port (
    clk : in std_logic;
    rst : in std_logic;
    in0_data : in std_logic_vector(63 downto 0);
    in0_valid : in std_logic;
    in0_ready : out std_logic;
    in1_data : in std_logic_vector(63 downto 0);
    in1_valid : in std_logic;
    in1_ready : out std_logic;
    out0_data : out std_logic_vector(0 downto 0);
    out0_valid : out std_logic;
    out0_ready : in std_logic
  );
end entity;

architecture behav of op_fcmp_gt_f64_l1 is
  signal result : std_logic_vector(0 downto 0);
  type pipe_t is array (0 to 0) of std_logic_vector(0 downto 0);
  signal data_pipe : pipe_t;
  signal valid_pipe : std_logic_vector(0 to 0);
  signal accept : std_logic;
  signal advance : std_logic;
begin
  result(0) <= '1' when to_float64(in0_data) > to_float64(in1_data) else '0';
  accept <= in0_valid and in1_valid and advance;
  advance <= out0_ready or not valid_pipe(0);
  in0_ready <= accept;
  in1_ready <= accept;
  out0_valid <= valid_pipe(0);
  out0_data <= data_pipe(0);
  process (clk)
  begin
    if rising_edge(clk) then
      if rst = '1' then
        valid_pipe <= (others => '0');
      elsif advance = '1' then
        data_pipe(0) <= result;
        valid_pipe(0) <= accept;
      end if;
    end if;
  end process;
end architecture;

entity op_fcmp_lt_f64_l1 is
  port (
    clk : in std_logic;
    rst : in std_logic;
    in0_data : in std_logic_vector(63 downto 0);
    in0_valid : in std_logic;
    in0_ready : out std_logic;
    in1_data : in std_logic_vector(63 downto 0);
    in1_valid : in std_logic;
    in1_ready : out std_logic;
    out0_data : out std_logic_vector(0 downto 0);
    out0_valid : out std_logic;
    out0_ready : in std_logic
  );
end entity;

architecture behav of op_fcmp_lt_f64_l1 is
  signal result : std_logic_vector(0 downto 0);
  type pipe_t is array (0 to 0) of std_logic_vector(0 downto 0);
  signal data_pipe : pipe_t;
  signal valid_pipe : std_logic_vector(0 to 0);
  signal accept : std_logic;
  signal advance : std_logic;
begin
  result(0) <= '1' when to_float64(in0_data) < to_float64(in1_data) else '0';
  accept <= in0_valid and in1_valid and advance;
  advance <= out0_ready or not valid_pipe(0);
  in0_ready <= accept;
  in1_ready <= accept;
  out0_valid <= valid_pipe(0);
  out0_data <= data_pipe(0);
  process (clk)
  begin
    if rising_edge(clk) then
      if rst = '1' then
        valid_pipe <= (others => '0');
      elsif advance = '1' then
        data_pipe(0) <= result;
        valid_pipe(0) <= accept;
      end if;
    end if;
  end process;
end architecture;

entity op_fdiv_f64_l8 is
  port (
    clk : in std_logic;
    rst : in std_logic;
    in0_data : in std_logic_vector(63 downto 0);
    in0_valid : in std_logic;
    in0_ready : out std_logic;
    in1_data : in std_logic_vector(63 downto 0);
    in1_valid : in std_logic;
    in1_ready : out std_logic;
    out0_data : out std_logic_vector(63 downto 0);
    out0_valid : out std_logic;
    out0_ready : in std_logic
  );
end entity;

architecture behav of op_fdiv_f64_l8 is
  signal result : std_logic_vector(63 downto 0);
  type pipe_t is array (0 to 7) of std_logic_vector(63 downto 0);
  signal data_pipe : pipe_t;
  signal valid_pipe : std_logic_vector(0 to 7);
  signal accept : std_logic;
  signal advance : std_logic;
begin
  result <= to_slv(to_float64(in0_data) / to_float64(in1_data));
  accept <= in0_valid and in1_valid and advance;
  advance <= out0_ready or not valid_pipe(7);
  in0_ready <= accept;
  in1_ready <= accept;
  out0_valid <= valid_pipe(7);
  out0_data <= data_pipe(7);
  process (clk)
  begin
    if rising_edge(clk) then
      if rst = '1' then
        valid_pipe <= (others => '0');
      elsif advance = '1' then
        data_pipe(0) <= result;
        valid_pipe(0) <= accept;
        data_pipe(1) <= data_pipe(0);
        valid_pipe(1) <= valid_pipe(0);
        data_pipe(2) <= data_pipe(1);
        valid_pipe(2) <= valid_pipe(1);
        data_pipe(3) <= data_pipe(2);
        valid_pipe(3) <= valid_pipe(2);
        data_pipe(4) <= data_pipe(3);
        valid_pipe(4) <= valid_pipe(3);
        data_pipe(5) <= data_pipe(4);
        valid_pipe(5) <= valid_pipe(4);
        data_pipe(6) <= data_pipe(5);
        valid_pipe(6) <= valid_pipe(5);
        data_pipe(7) <= data_pipe(6);
        valid_pipe(7) <= valid_pipe(6);
      end if;
    end if;
  end process;
end architecture;

entity op_fmul_f64_l4 is
  port (
    clk : in std_logic;
    rst : in std_logic;
    in0_data : in std_logic_vector(63 downto 0);
    in0_valid : in std_logic;
    in0_ready : out std_logic;
    in1_data : in std_logic_vector(63 downto 0);
    in1_valid : in std_logic;
    in1_ready : out std_logic;
    out0_data : out std_logic_vector(63 downto 0);
    out0_valid : out std_logic;
    out0_ready : in std_logic
  );
end entity;

architecture behav of op_fmul_f64_l4 is
  signal result : std_logic_vector(63 downto 0);
  type pipe_t is array (0 to 3) of std_logic_vector(63 downto 0);
  signal data_pipe : pipe_t;
  signal valid_pipe : std_logic_vector(0 to 3);
  signal accept : std_logic;
  signal advance : std_logic;
begin
  result <= to_slv(to_float64(in0_data) * to_float64(in1_data));
  accept <= in0_valid and in1_valid and advance;
  advance <= out0_ready or not valid_pipe(3);
  in0_ready <= accept;
  in1_ready <= accept;
  out0_valid <= valid_pipe(3);
  out0_data <= data_pipe(3);
  process (clk)
  begin
    if rising_edge(clk) then
      if rst = '1' then
        valid_pipe <= (others => '0');
      elsif advance = '1' then
        data_pipe(0) <= result;
        valid_pipe(0) <= accept;
        data_pipe(1) <= data_pipe(0);
        valid_pipe(1) <= valid_pipe(0);
        data_pipe(2) <= data_pipe(1);
        valid_pipe(2) <= valid_pipe(1);
        data_pipe(3) <= data_pipe(2);
        valid_pipe(3) <= valid_pipe(2);
      end if;
    end if;
  end process;
end architecture;

entity op_fsub_f64_l4 is
  port (
    clk : in std_logic;
    rst : in std_logic;
    in0_data : in std_logic_vector(63 downto 0);
    in0_valid : in std_logic;
    in0_ready : out std_logic;
    in1_data : in std_logic_vector(63 downto 0);
    in1_valid : in std_logic;
    in1_ready : out std_logic;
    out0_data : out std_logic_vector(63 downto 0);
    out0_valid : out std_logic;
    out0_ready : in std_logic
  );
end entity;

architecture behav of op_fsub_f64_l4 is
  signal result : std_logic_vector(63 downto 0);
  type pipe_t is array (0 to 3) of std_logic_vector(63 downto 0);
  signal data_pipe : pipe_t;
  signal valid_pipe : std_logic_vector(0 to 3);
  signal accept : std_logic;
  signal advance : std_logic;
begin
  result <= to_slv(to_float64(in0_data) - to_float64(in1_data));
  accept <= in0_valid and in1_valid and advance;
  advance <= out0_ready or not valid_pipe(3);
  in0_ready <= accept;
  in1_ready <= accept;
  out0_valid <= valid_pipe(3);
  out0_data <= data_pipe(3);
  process (clk)
  begin
    if rising_edge(clk) then
      if rst = '1' then
        valid_pipe <= (others => '0');
      elsif advance = '1' then
        data_pipe(0) <= result;
        valid_pipe(0) <= accept;
        data_pipe(1) <= data_pipe(0);
        valid_pipe(1) <= valid_pipe(0);
        data_pipe(2) <= data_pipe(1);
        valid_pipe(2) <= valid_pipe(1);
        data_pipe(3) <= data_pipe(2);
        valid_pipe(3) <= valid_pipe(2);
      end if;
    end if;
  end process;
end architecture;

entity op_select_f64_l0 is
  port (
    clk : in std_logic;
    rst : in std_logic;
    in0_data : in std_logic_vector(0 downto 0);
    in0_valid : in std_logic;
    in0_ready : out std_logic;
    in1_data : in std_logic_vector(63 downto 0);
    in1_valid : in std_logic;
    in1_ready : out std_logic;
    in2_data : in std_logic_vector(63 downto 0);
    in2_valid : in std_logic;
    in2_ready : out std_logic;
    out0_data : out std_logic_vector(63 downto 0);
    out0_valid : out std_logic;
    out0_ready : in std_logic
  );
end entity;

architecture behav of op_select_f64_l0 is
  signal result : std_logic_vector(63 downto 0);
  signal fire : std_logic;
begin
  result <= in1_data when in0_data(0) = '1' else in2_data;
  fire <= in0_valid and in1_valid and in2_valid and out0_ready;
  in0_ready <= fire;
  in1_ready <= fire;
  in2_ready <= fire;
  out0_valid <= in0_valid and in1_valid and in2_valid;
  out0_data <= result;
end architecture;

entity sink_w0 is
  port (
    clk : in std_logic;
    rst : in std_logic;
    in0_valid : in std_logic;
    in0_ready : out std_logic
  );
end entity;

architecture behav of sink_w0 is
begin
  in0_ready <= '1';
end architecture;
